#ifndef REACH_CORE_FAILPOINT_H_
#define REACH_CORE_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/rng.h"

namespace reach {

/// What a triggered failpoint asks its site to do. Sites honor kError /
/// kPartial / kEintr in whatever way makes sense locally (throw, return
/// false, truncate, pretend the syscall was interrupted); kDelay is
/// served inside `Evaluate` itself — the calling thread has already
/// slept by the time the hit is returned — so latency-only sites need no
/// handling code at all.
enum class FailpointAction : uint8_t {
  kNone = 0,  // site not armed, or armed but didn't fire this time
  kError,     // fail the operation
  kPartial,   // complete only `arg` bytes/items, then fail
  kEintr,     // simulate an interrupted syscall (EINTR)
  kDelay,     // already slept `arg` ms inside Evaluate
};

/// Stable action name ("error", "delay", ...) for messages and logs.
const char* FailpointActionName(FailpointAction action);

/// Outcome of evaluating one site. Truthiness == "the failpoint fired".
struct FailpointHit {
  FailpointAction action = FailpointAction::kNone;
  /// kPartial: byte/item budget; kDelay: milliseconds slept; else 0.
  uint64_t arg = 0;

  explicit operator bool() const { return action != FailpointAction::kNone; }
};

/// Thrown by sites that inject a failure into exception-based control
/// flow (e.g. the serve rebuild path). Distinguishable from organic
/// errors in logs by the "failpoint" prefix of its message.
class FailpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Process-wide table of named fault-injection sites — a deterministic
/// chaos harness for the serve/snapshot paths (docs/ROBUSTNESS.md).
///
/// Sites are armed from the `REACH_FAILPOINTS` environment variable (read
/// once, at startup, and announced on stderr when it arms any site) or
/// programmatically via `Arm`/`Configure`. Spec grammar, entries
/// separated by ';' (or ',' at top level):
///
///   serve.rebuild=error(p=0.5,seed=7);snapshot.write=partial(bytes=4096)
///
/// Actions: `error`, `delay(ms=N)`, `partial(bytes=N)`, `eintr`, and
/// `off` (disarm). Common parameters: `p` (fire probability, default 1),
/// `seed` (per-site RNG seed, default = hash of the site name, so runs
/// are reproducible even unseeded), `times` (max fires, default
/// unlimited), `skip` (ignore the first N evaluations).
///
/// Thread-safe. `Evaluate` is a table lookup under one mutex; the
/// `REACH_FAILPOINT(site)` sites compiled into every build reach it only
/// while some site is armed, so an unarmed process pays two loads (the
/// `Global()` guard and the flag) per site.
class FailpointRegistry {
 public:
  static FailpointRegistry& Global() {
    static FailpointRegistry* instance = new FailpointRegistry();
    return *instance;
  }

  /// Parses a full multi-site spec and arms every entry. On a malformed
  /// entry, arms nothing, reports via `*error`, and returns false.
  bool Configure(const std::string& spec, std::string* error = nullptr);

  /// Arms (or re-arms, resetting state) one site from an action spec
  /// like "error(p=0.5,seed=7)". "off" disarms.
  bool Arm(const std::string& site, const std::string& action_spec,
           std::string* error = nullptr);

  void Disarm(const std::string& site);
  void DisarmAll();

  /// The gate every site checks first: true while any site is armed.
  bool AnyArmed() const { return any_armed_.load(std::memory_order_acquire); }

  /// What `REACH_FAILPOINT(site)` calls: `Evaluate` while any site is
  /// armed, otherwise an empty hit without touching the table's lock.
  FailpointHit Fire(const char* site) {
    return AnyArmed() ? Evaluate(site) : FailpointHit{};
  }

  /// The heart of the harness. Rolls the site's seeded RNG and returns
  /// what (if anything) should fail; for kDelay the sleep happens here,
  /// off-lock.
  FailpointHit Evaluate(const char* site);

  /// Cumulative fires of `site` since it was (last) armed.
  uint64_t HitCount(const std::string& site) const;

  /// Currently armed site names, unordered.
  std::vector<std::string> ArmedSites() const;

 private:
  struct Site {
    FailpointAction action = FailpointAction::kNone;
    double p = 1.0;
    uint64_t delay_ms = 0;
    uint64_t bytes = 0;
    int64_t times_left = -1;  // -1 = unlimited
    uint64_t skip_left = 0;
    Xoshiro256ss rng{0};
    uint64_t hits = 0;
  };

  FailpointRegistry();

  mutable std::mutex mu_;
  std::unordered_map<std::string, Site> sites_;
  // !sites_.empty(), stored under mu_ by every mutator.
  std::atomic<bool> any_armed_{false};
};

#define REACH_FAILPOINT(site) ::reach::FailpointRegistry::Global().Fire(site)

}  // namespace reach

#endif  // REACH_CORE_FAILPOINT_H_
