// The crash explorer is ScenarioRunner over CrashSchedule plans
// (src/harness/scenario_runner.h); this header keeps its include path.
#ifndef SRC_HARNESS_CRASH_EXPLORER_H_
#define SRC_HARNESS_CRASH_EXPLORER_H_

#include "src/harness/scenario_runner.h"

#endif  // SRC_HARNESS_CRASH_EXPLORER_H_
