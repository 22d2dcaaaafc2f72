//===- persist/CacheImage.h - Persistent code-cache images -----------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent code caches: serialize a warmed runtime — fragment bodies,
/// the fragment table with its trace-head counters, the direct-link graph
/// (including adaptive indirect-branch inline-chain arms), and the per-site
/// indirect-branch target histograms — into a single versioned `.riocache`
/// image, and restore it into a *fresh* Runtime before the first guest
/// instruction executes. A later run of the same application then starts
/// from the warmed steady state instead of paying block building, trace
/// promotion and link construction again (the paper's process model pays
/// that warmup on every run; ROADMAP "persistent code caches").
///
/// Safety model: loading is parse-then-apply. The whole image is first
/// decoded into a host-side representation with every offset, link index
/// and instruction bounds-checked against the target runtime's geometry;
/// only a fully validated image mutates the runtime or machine. Any
/// mismatch — magic, version, payload checksum, RuntimeConfig/CostModel
/// hash, cache geometry, application-code hash, SMC write-monitor
/// generation, or a malformed record — rejects the image with a specific
/// LoadStatus, bumps cache_warm_rejects, records a persist_reject trace
/// event, and leaves the runtime untouched for a clean cold start.
///
/// Relocation: fragment link records are cache-base-relative (see
/// core/Fragment.h), and an image may be restored at a different runtime
/// region base than it was saved from. Under the uniform base shift all
/// rel32 branches are invariant (both endpoints move together); the only
/// bytes rewritten are absolute-memory operands addressing the old runtime
/// region (spill/scratch slot references), which are re-encoded with the
/// shifted address.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_PERSIST_CACHEIMAGE_H
#define RIO_PERSIST_CACHEIMAGE_H

#include <cstdint>
#include <cstddef>
#include <vector>

namespace rio {

class Runtime;

namespace persist {

/// Image format identity. Bump the version on any layout change: images
/// from other versions are rejected (never "best-effort" decoded).
constexpr uint32_t CacheImageMagic = 0x434F4952u; // "RIOC" little-endian
constexpr uint32_t CacheImageVersion = 4;

/// Why a load (or validate) did not restore an image. Ok means the image
/// was fully applied (or, for validate, would be). The enum value is the
/// Tag payload of the persist_reject trace event.
enum class LoadStatus : uint32_t {
  Ok = 0,
  Truncated,        ///< fewer bytes than a record or the header claims
  BadMagic,         ///< not a .riocache image
  BadVersion,       ///< a different (older/newer) format version
  BadChecksum,      ///< payload corrupted after the header was written
  ConfigMismatch,   ///< RuntimeConfig / CostModel / region-layout hash
  GeometryMismatch, ///< bb/trace cache split differs from the image's
  AppImageMismatch, ///< application code bytes changed since the save
  SmcGeneration,    ///< write-monitor generation moved since the save
  Malformed,        ///< in-bounds but inconsistent record contents
  NotCold,          ///< target runtime already built fragments (or client)
};

/// Stable display name ("ok", "bad_magic", ...).
const char *loadStatusName(LoadStatus Status);

/// Serializer/loader for persistent cache images. Stateless: every entry
/// point takes the runtime explicitly. Befriended by Runtime so it can
/// walk and rebuild the private fragment/link/table state.
class CacheCodec {
public:
  /// Serializes \p RT's warmed state into \p Out (replacing its contents).
  /// Returns false without touching \p Out when the runtime cannot be
  /// snapshotted: a client is attached, execution is suspended inside the
  /// cache or mid-trace-recording, a clean call is in flight, or unflushed
  /// code-write events are pending. Charges no simulated cycles (the saved
  /// bytes are host-side state, like an mmap'd cache file).
  static bool save(Runtime &RT, std::vector<uint8_t> &Out);

  /// Restores the image in [Data, Data+Size) into \p RT, which must be
  /// cold: no fragments built, no client, cache mode. On any validation
  /// failure the runtime is left exactly as it was (cold start proceeds)
  /// and the reject is observable via cache_warm_rejects / persist_reject.
  /// Charges no simulated cycles.
  static LoadStatus load(Runtime &RT, const uint8_t *Data, size_t Size);

  /// Parse-and-validate only: what load() would answer for this runtime,
  /// with no side effects at all (no stats, no events, no state).
  static LoadStatus validate(Runtime &RT, const uint8_t *Data, size_t Size);

  /// Trusted-clone restore for copy-on-write fork unsharing (see
  /// persist/Fork.cpp): re-applies a template's frozen image into a
  /// structurally cold forked tenant at the same region base. Skips the
  /// application-code-hash and SMC-generation gates — the tenant's own
  /// code writes are typically why it is unsharing — and records no
  /// persist stats or trace events. All structural validation still runs.
  static LoadStatus loadClone(Runtime &RT, const uint8_t *Data, size_t Size);

private:
  /// Host-side decoded image (CacheImage.cpp): unregistered runtime
  /// fragments and tables. parse() fully validates and relocates into
  /// this; apply() then cannot fail.
  struct Image;
  /// The per-record field walks save() and parse() share (CacheImage.cpp).
  struct Walk;
  static bool quiescent(Runtime &RT);
  static uint64_t configHash(Runtime &RT);
  static LoadStatus parse(Runtime &RT, const uint8_t *Data, size_t Size,
                          Image &Out, bool Trusted = false);
  static void apply(Runtime &RT, Image &Img, size_t ImageBytes,
                    bool Trusted = false);
};

} // namespace persist
} // namespace rio

#endif // RIO_PERSIST_CACHEIMAGE_H
