# Self-modifying code between hot loops. Each of three rounds calls the
# two-instruction function `patchfn` 3000 times from a hot inner loop
# (one trace, with patchfn inlined), then the outer loop copies one of two
# 8-byte templates over patchfn, the patch of the `smc` workload. Every
# call's value feeds the checksum, so a trace that keeps running the old
# patchfn after the store changes the output. Prints 16665000.
    .entry main
main:
    mov esi, 0
    mov edi, 3
outer:
    mov ecx, 3000
inner:
    call patchfn
    add esi, eax
    dec ecx
    jnz inner
    mov eax, edi
    and eax, 1
    jz evencase
    mov eax, [tmpl1]
    mov edx, [tmpl1+4]
    jmp dopatch
evencase:
    mov eax, [tmpl2]
    mov edx, [tmpl2+4]
dopatch:
    mov [patchfn], eax
    mov [patchfn+4], edx
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
