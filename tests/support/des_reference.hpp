#pragma once

// The event-driven form of the BSP interval model that `run_trace_simulation`
// evaluates as a max-plus recurrence. Tests hold the two equal bit for bit.
// This is also where a network model with shared links would start: once
// messages contend, finish times depend on arrival order and the recurrence
// no longer holds, but a discrete-event simulation still does.

#include "bsst/trace_sim.hpp"

namespace picp::testing {

/// Simulate `input` with a priority queue of events ordered by (time,
/// schedule order). Per interval, each rank gets a start, a compute-done and
/// a rank-done event, and every packed message one event; the barrier
/// releases the next interval a log-tree collective after the last rank-done.
/// Throws picp::Error on the inputs `run_trace_simulation` rejects.
SimReport run_des_reference(const TraceSimInput& input);

}  // namespace picp::testing
