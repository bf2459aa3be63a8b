// Failpoints: compile-gated fault injection for syscall and allocation
// seams.
//
// A failpoint is a named site in production code that, when armed, makes
// the operation there fail the way the kernel or the allocator would:
// return an errno, truncate an I/O to a byte cap, or throw
// std::bad_alloc. Every syscall and file-I/O seam (net/syscall.hpp,
// persist/io.hpp, flash/io.hpp) goes through one helper, InjectIo. Tests
// (and the chaos soak) arm points by name with a spec string; the registry
// counts every trip so `stats` can report what the storm actually did.
//
// Spec grammar — `what[@when]`:
//
//   what:  an errno name (EINTR, EMFILE, ECONNRESET, ...) |
//          short:<cap>   (truncate the I/O to <cap> bytes) |
//          oom           (throw std::bad_alloc) |
//          sleep:<ms>    (delay the operation; skews batch latencies) |
//          kill          (raise SIGKILL at the seam — the crash matrix
//                         schedules kill@nth:N at persistence seams)
//   when:  once | x<N> (fire N times) | nth:<N> (every Nth evaluation) |
//          p:<P>[:<seed>] (probability P per evaluation, seeded stream);
//          omitted => every evaluation
//
//   examples: "EMFILE@once"  "EINTR@p:0.1:7"  "short:1"  "oom@x3"
//
// Zero overhead when off: with PAMAKV_FAILPOINTS unset/0 the macros are
// empty statements, none of these classes exist, and src/util/failpoint.cpp
// is not even compiled into the library (CI verifies the default build
// carries no failpoint symbols). When on, a disarmed point costs one
// relaxed atomic load.
#pragma once

#include <cstdint>

#if PAMAKV_FAILPOINTS

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "pamakv/util/rng.hpp"

namespace pamakv::util {

struct FailPointSpec {
  enum class Trigger : std::uint8_t {
    kAlways,       ///< every evaluation (x0 / no `when` clause)
    kTimes,        ///< first `times` evaluations, then self-disarm
    kEveryNth,     ///< evaluations where count % period == 0
    kProbability,  ///< independent draw per evaluation
  };
  enum class Action : std::uint8_t {
    kErrno,     ///< fail the call with `err`
    kShortIo,   ///< let the call proceed, capped to `cap` bytes
    kBadAlloc,  ///< throw std::bad_alloc
    kSleep,     ///< delay the call by `sleep_ms` (latency skew)
    kKill,      ///< raise SIGKILL inside Evaluate (crash matrix)
  };

  Trigger trigger = Trigger::kAlways;
  Action action = Action::kErrno;
  int err = 0;                ///< kErrno payload
  std::uint64_t times = 0;    ///< kTimes budget
  std::uint64_t period = 1;   ///< kEveryNth period
  double probability = 0.0;   ///< kProbability chance
  std::uint64_t cap = 1;      ///< kShortIo byte cap
  std::uint64_t sleep_ms = 1;   ///< kSleep delay
  std::uint64_t seed = 0x5eed;  ///< kProbability stream seed

  /// Parses the spec grammar above; nullopt on malformed input.
  static std::optional<FailPointSpec> Parse(std::string_view text);
};

/// What an armed point decided for one evaluation.
struct FailPointHit {
  FailPointSpec::Action action;
  int err;
  std::uint64_t cap;
  std::uint64_t sleep_ms;
};

/// One named injection site. Evaluate() is called on the production hot
/// path; everything else is test/configuration plumbing.
class FailPoint {
 public:
  explicit FailPoint(std::string name) : name_(std::move(name)) {}

  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  /// Consults the point. nullopt when disarmed (the common case: one
  /// relaxed load) or when the trigger decided not to fire this time.
  std::optional<FailPointHit> Evaluate();

  void Arm(const FailPointSpec& spec);
  void Disarm();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Times this point actually fired (injected a fault) since process
  /// start. Survives Disarm — the chaos soak reads it after the storm.
  [[nodiscard]] std::uint64_t trips() const noexcept {
    return trips_.load(std::memory_order_relaxed);
  }

 private:
  const std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> trips_{0};
  std::mutex mu_;            ///< guards everything below
  FailPointSpec spec_;
  Rng rng_{0};
  std::uint64_t fired_ = 0;  ///< fires under the current spec
  std::uint64_t calls_ = 0;  ///< evaluations under the current spec
};

/// Process-wide registry, keyed by point name. Points are created on
/// first use and live until process exit, so the `static FailPoint&`
/// references cached at the injection sites never dangle.
class FailPoints {
 public:
  static FailPoint& Get(std::string_view name);
  /// Parses and arms. Returns false (point untouched) on a malformed spec.
  static bool Arm(std::string_view name, std::string_view spec_text);
  static void Arm(std::string_view name, const FailPointSpec& spec);
  static void DisableAll();
  /// Arms every `name=spec` pair (';'-separated) in the environment
  /// variable; returns how many points were armed. Malformed pairs are
  /// skipped. Default variable: PAMAKV_FAILPOINTS_CFG.
  static std::size_t ConfigureFromEnv(
      const char* var = "PAMAKV_FAILPOINTS_CFG");
  /// (name, trips) for every point that ever fired, name-sorted — the
  /// `stats` command exports these as `failpoint.<name>` lines.
  static std::vector<std::pair<std::string, std::uint64_t>> TripCounts();
  static std::uint64_t Trips(std::string_view name);
};

/// The seam every syscall and file-I/O wrapper consults before its call.
/// An errno hit returns true: the wrapper fails with -1 and errno set. A
/// short-io hit caps *len (calls with a length; nullptr otherwise) and a
/// sleep hit delays the call; either way the call then proceeds.
inline bool InjectIo(FailPoint& fp, std::size_t* len = nullptr) {
  const auto hit = fp.Evaluate();
  if (!hit) return false;
  switch (hit->action) {
    case FailPointSpec::Action::kErrno:
      errno = hit->err;
      return true;
    case FailPointSpec::Action::kShortIo:
      if (len != nullptr && hit->cap < *len) {
        *len = static_cast<std::size_t>(hit->cap);
      }
      return false;
    case FailPointSpec::Action::kSleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(hit->sleep_ms));
      return false;
    default:
      return false;
  }
}

}  // namespace pamakv::util

/// I/O injection site: consults the named point through InjectIo and
/// returns -1 from the enclosing wrapper on an errno hit. `len` is a
/// std::size_t* to the call's length, or nullptr.
#define PAMAKV_FAILPOINT_IO(point_name, len)                               \
  do {                                                                     \
    static ::pamakv::util::FailPoint& pamakv_fp_ =                         \
        ::pamakv::util::FailPoints::Get(point_name);                       \
    if (::pamakv::util::InjectIo(pamakv_fp_, len)) return -1;              \
  } while (0)

/// Injection site for allocation seams: throws std::bad_alloc when the
/// named point fires with the oom action.
#define PAMAKV_FAILPOINT_OOM(point_name)                                   \
  do {                                                                     \
    static ::pamakv::util::FailPoint& pamakv_fp_ =                         \
        ::pamakv::util::FailPoints::Get(point_name);                       \
    const auto pamakv_hit_ = pamakv_fp_.Evaluate();                        \
    if (pamakv_hit_ &&                                                     \
        pamakv_hit_->action ==                                             \
            ::pamakv::util::FailPointSpec::Action::kBadAlloc) {            \
      throw std::bad_alloc();                                              \
    }                                                                      \
  } while (0)

/// Injection site that honors both the oom action (throw std::bad_alloc)
/// and the sleep action (delay in place) — execution seams where tests
/// want to skew latency as well as starve allocations.
#define PAMAKV_FAILPOINT_INJECT(point_name)                                \
  do {                                                                     \
    static ::pamakv::util::FailPoint& pamakv_fp_ =                         \
        ::pamakv::util::FailPoints::Get(point_name);                       \
    const auto pamakv_hit_ = pamakv_fp_.Evaluate();                        \
    if (pamakv_hit_) {                                                     \
      if (pamakv_hit_->action ==                                           \
          ::pamakv::util::FailPointSpec::Action::kBadAlloc) {              \
        throw std::bad_alloc();                                            \
      }                                                                    \
      if (pamakv_hit_->action ==                                           \
          ::pamakv::util::FailPointSpec::Action::kSleep) {                 \
        ::std::this_thread::sleep_for(                                     \
            ::std::chrono::milliseconds(pamakv_hit_->sleep_ms));           \
      }                                                                    \
    }                                                                      \
  } while (0)

#else  // !PAMAKV_FAILPOINTS

#define PAMAKV_FAILPOINT_IO(point_name, len) \
  do {                                       \
  } while (0)

#define PAMAKV_FAILPOINT_OOM(point_name) \
  do {                                   \
  } while (0)

#define PAMAKV_FAILPOINT_INJECT(point_name) \
  do {                                      \
  } while (0)

#endif  // PAMAKV_FAILPOINTS
