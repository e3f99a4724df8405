// Compile probe for fsm::State<E>: a lifecycle field has no assignment
// operator, so writing an enum value straight into one must fail to
// build. Built only by the Build.LifecycleField* ctests; with
// DAGON_PROBE_USE_TRANSITION defined the same write goes through
// fsm::transition() and must compile, proving the failing build fails
// for this reason alone.
#include "sched/job_state.hpp"

void probe_finish(dagon::TaskRuntime& task) {
#ifdef DAGON_PROBE_USE_TRANSITION
  dagon::fsm::transition(task.status, dagon::TaskStatus::Finished);
#else
  task.status = dagon::TaskStatus::Finished;
#endif
}
