// The served runner's replica is the simulator's (sim/replica.h): the
// serve_* entry points add the arrival-clock FIFO queue and the cached
// reply certificate to the shared register core.

#pragma once

#include "sim/replica.h"

namespace sqs {

using ServiceReplica = Replica;

}  // namespace sqs
