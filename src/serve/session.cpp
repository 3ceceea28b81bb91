#include "serve/session.hpp"

#include <utility>

namespace psmsys::serve {

const char* to_string(SceneStatus status) noexcept {
  switch (status) {
    case SceneStatus::Completed: return "completed";
    case SceneStatus::Rejected: return "rejected";
    case SceneStatus::Quarantined: return "quarantined";
    case SceneStatus::Aborted: return "aborted";
  }
  return "?";
}

const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::Draining: return "draining";
    case RejectReason::Stopped: return "stopped";
    case RejectReason::StreamClosed: return "stream_closed";
  }
  return "?";
}

EngineContext::EngineContext(std::shared_ptr<const SharedRuleBase> rulebase,
                             const std::function<void(ops5::Engine&)>& base_init,
                             SessionOptions options)
    : rulebase_(std::move(rulebase)),
      options_(std::move(options)),
      runner_(psm::TaskProcessFactory{[this] { return rulebase_->make_engine(); }, base_init}) {
  if (options_.capture_firing_log || options_.trace_sink) {
    // Watch level 1 — one line per firing, the byte-identity proof surface.
    // Every line carries the session prefix, so a shared sink fed by many
    // contexts still yields separable per-session streams.
    runner_.engine().set_watch(1, [this](const std::string& line) {
      if (options_.capture_firing_log) {
        firing_log_ += prefix_;
        firing_log_ += line;
        firing_log_ += '\n';
      }
      if (options_.trace_sink) options_.trace_sink(prefix_ + line);
    });
  }
}

void Session::begin() {
  const SessionOptions& options = context_.options_;
  context_.prefix_ = std::string("s").append(std::to_string(id_)).append("| ");
  if (options.tracer != nullptr) {
    // One tid lane per session: concurrent sessions never share a lane, so
    // their spans cannot interleave within one track of the timeline.
    context_.engine().set_tracer(options.tracer, static_cast<std::uint32_t>(id_));
  }
  context_.runner_.begin_stream();
}

Session::TickOutcome Session::run_tick(const SceneJob& job,
                                       const std::function<bool()>& aborted) {
  const SessionOptions& options = context_.options_;
  const psm::Task task{id_, job.label, job.inject};
  psm::AttemptLimits limits;
  limits.cancelled = aborted ? &aborted : nullptr;
  limits.poll_every = options.abort_check_every;
  limits.collect = job.collect ? &job.collect : nullptr;
  // A failed attempt's firing lines (an injected crash's, or an overrun's)
  // are rolled back with it; its error text is reported even when a retry
  // completes.
  TickOutcome out;
  context_.firing_log_.clear();
  psm::AttemptOutcome outcome = psm::run_attempts(
      context_.runner_, task, options.attempts, options.injector, limits,
      [this, &out](const psm::AttemptOutcome& attempt) {
        if (attempt.result == psm::AttemptResult::Completed) return;
        context_.firing_log_.clear();
        out.error = attempt.error;
      });
  out.attempts = outcome.attempts;
  switch (outcome.result) {
    case psm::AttemptResult::Completed:
      out.status = SceneStatus::Completed;
      out.counters = outcome.measurement.counters;
      out.firing_log = std::move(context_.firing_log_);
      context_.firing_log_.clear();
      out.wm_size = context_.engine().wm_size();
      out.live_tokens = context_.engine().network().live_tokens();
      break;
    case psm::AttemptResult::Aborted:
      // Watchdog wall-clock abort: terminal, no retry — the budget that
      // tripped is host time, so a retry would just burn it again.
      out.status = SceneStatus::Aborted;
      out.error = "aborted by watchdog";
      break;
    default:
      // Faults and cycle-deadline overruns, each rolled back to the tick
      // checkpoint, until the attempts ran out.
      out.status = SceneStatus::Quarantined;
      break;
  }
  return out;
}

void Session::finish() {
  context_.runner_.end_stream();
  context_.firing_log_.clear();
  context_.prefix_.clear();
  ++context_.scenes_run_;
}

}  // namespace psmsys::serve
