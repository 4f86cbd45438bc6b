// Bridges the synthetic traffic plane to the daemon wire protocol:
// serializes one generated ConnectionEvent into the CapturePayload a live
// sensor would ship. The record bytes come from
// tls::notary::serialize_event_records, the serializer batch observe uses,
// so a stream ingested through the daemon is byte-for-byte the stream
// batch mode observes. That equivalence is what the determinism
// acceptance test pins.
#pragma once

#include "daemon/protocol.hpp"
#include "population/traffic.hpp"

namespace tls::daemon {

[[nodiscard]] CapturePayload capture_from_event(
    const tls::population::ConnectionEvent& event);

}  // namespace tls::daemon
