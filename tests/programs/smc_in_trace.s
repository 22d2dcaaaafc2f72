# Self-modifying code from inside the hot trace. Each of three rounds
# runs an inner loop of 3000 iterations that calls the two-instruction
# function `patchfn` and then stores the round's 8-byte template through
# a pointer. The pointer selects `patchfn` only at iteration 1500 (branch
# free, so the store stays on the trace's path) and a scratch buffer
# otherwise: halfway through each round the trace rewrites code it has
# inlined, and the remaining calls must see the new value. Odd rounds
# patch in tmpl1 (3333), even rounds tmpl2 (1111).
    .entry main
scratch:
    .space 8
delta:
    .space 4
main:
    mov eax, scratch
    sub eax, patchfn
    mov [delta], eax
    mov esi, 0
    mov edi, 3
outer:
    mov ebp, tmpl2
    mov eax, edi
    and eax, 1
    jz haveround
    mov ebp, tmpl1
haveround:
    mov ecx, 3000
inner:
    call patchfn
    add esi, eax
    mov ebx, ecx
    sub ebx, 1500
    neg ebx
    sbb ebx, ebx
    and ebx, [delta]
    add ebx, patchfn
    mov eax, [ebp]
    mov edx, [ebp+4]
    mov [ebx], eax
    mov [ebx+4], edx
    dec ecx
    jnz inner
    dec edi
    jnz outer
    mov ebx, esi
    mov eax, 2
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80

# patchfn starts as tmpl2. All three share one shape:
#   mov eax, imm32 (5) ; ret (1) ; nop ; nop
patchfn:
    mov eax, 1111
    ret
    nop
    nop
tmpl1:
    mov eax, 3333
    ret
    nop
    nop
tmpl2:
    mov eax, 1111
    ret
    nop
    nop
