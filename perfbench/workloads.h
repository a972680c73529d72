// The three workloads. Each sets up its data (kSetups times), runs a
// warm-up and then a fixed number of whole rounds of its seeded statement
// stream, scaled by opt.seconds; checks every result against a computation
// made apart from the engine; and prints its metrics. Returns the process
// exit code.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

int RunOltp(const Options& opt);
int RunAdhoc(const Options& opt);
int RunAnalytic(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
