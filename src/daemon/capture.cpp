#include "daemon/capture.hpp"

#include "notary/monitor.hpp"

namespace tls::daemon {

CapturePayload capture_from_event(
    const tls::population::ConnectionEvent& event) {
  CapturePayload capture;
  capture.month_index = static_cast<std::uint32_t>(event.month.index());
  capture.day = event.day;
  capture.sslv2 = event.sslv2;
  if (event.sslv2) return capture;  // hello is not set for SSLv2 residue
  capture.success = event.result.success;
  capture.used_fallback = event.used_fallback;
  tls::notary::serialize_event_records(event, capture.client, capture.server,
                                       capture.ske, capture.alert);
  return capture;
}

}  // namespace tls::daemon
