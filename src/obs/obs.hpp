// suvtm::obs -- cycle-attributed tracing and metrics.
//
// The hook macro follows the SUVTM_CHECK_HOOK discipline exactly: each hook
// costs one pointer test against a Recorder* that is nullptr unless the run
// asked for tracing or metrics (cfg.obs, off by default).
#pragma once

namespace suvtm::obs {

class Recorder;

/// Every build carries the hook sites; kept for callers that report it.
inline constexpr bool kHooksCompiled = true;

}  // namespace suvtm::obs

/// Invoke `call` on the obs::Recorder* `rec` when observability is active.
/// `rec` is evaluated once; the call is skipped when it is nullptr.
#define SUVTM_OBS_HOOK(rec, call) \
  do {                            \
    if (rec) (rec)->call;         \
  } while (0)
