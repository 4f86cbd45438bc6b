// The negotiation engine: given a real ClientHello and a ServerConfig,
// produce the ServerHello a deployment of that configuration would send —
// version selection (including TLS 1.3 supported_versions), cipher selection
// under server- or client-preference, curve selection, extension echoing,
// and the spec-violating quirks of §5.5/§7.3. Every negotiated data point in
// the study's figures flows through this function.
#pragma once

#include <cstdint>
#include <optional>

#include "servers/config.hpp"
#include "tlscore/rng.hpp"
#include "wire/alert.hpp"
#include "wire/client_hello.hpp"
#include "wire/server_hello.hpp"

namespace tls::handshake {

enum class FailureReason : std::uint8_t {
  kNone,
  kNoCommonVersion,
  kNoCommonCipher,
  kClientRejectedUnofferedSuite,  // server violated the spec; client aborted
};

std::string_view failure_reason_name(FailureReason r);

struct NegotiationResult {
  bool success = false;
  FailureReason failure = FailureReason::kNone;
  /// Present whenever the server answered (even if the client then aborted).
  std::optional<tls::wire::ServerHello> server_hello;
  std::uint16_t negotiated_version = 0;
  std::uint16_t negotiated_cipher = 0;
  std::uint16_t negotiated_group = 0;  // 0 = no (EC)DH group involved
  /// Server selected a suite the client never offered (§5.5 Interwise,
  /// §7.3 GOST/anon-NULL choosers).
  bool spec_violation = false;
  /// Heartbeat extension offered by client and acknowledged (§5.4).
  bool heartbeat_negotiated = false;
  /// Abbreviated handshake: the server echoed the client's session id.
  bool resumed = false;
};

struct NegotiateOptions {
  /// Clients that tolerate a ServerHello carrying an unoffered suite
  /// (the Interwise client population of §5.5). Standard stacks abort.
  bool accept_unoffered_suite = false;
  /// The client is re-presenting hello.session_id from an earlier session
  /// with this server; the server accepts at its resumption_rate.
  bool attempt_resumption = false;
};

NegotiationResult negotiate(const tls::wire::ClientHello& hello,
                            const tls::servers::ServerConfig& server,
                            tls::core::Rng& rng,
                            const NegotiateOptions& opts = {});

/// The deterministic core of negotiate(), split out so callers that replay
/// the same (hello shape, server, options) triple many times — the
/// producer-side GenCache — can compute it once and memoize it. The plan
/// captures everything that does not depend on the per-connection RNG
/// draws: version selection, quirk handling, cipher/group selection and
/// the echoed extension set. It depends on the hello only through
/// template-stable content (legacy_version, cipher_suites, extension
/// bodies, session-id *emptiness*) — never through the random bytes or the
/// session-id value, which complete_negotiation_into() fills per
/// connection, nor through a GREASE code point, which every selection
/// skips. The *order* of cipher_suites does matter (client preference), so
/// a hello whose suite order is drawn per connection needs its own plan.
struct NegotiationPlan {
  /// Fully-negotiated result with server random / session id left blank.
  NegotiationResult skeleton;
  /// Version selection failed before the first RNG draw: completion copies
  /// the skeleton and returns without touching the RNG, matching the
  /// legacy early return.
  bool version_fail = false;
  bool tls13 = false;
  /// Whether completion must consume the resumption-acceptance draw
  /// (pre-1.3, client re-presented a session id, attempt_resumption set).
  bool draw_resumption = false;
  double resumption_rate = 0.0;
};

NegotiationPlan plan_negotiation(const tls::wire::ClientHello& hello,
                                 const tls::servers::ServerConfig& server,
                                 const NegotiateOptions& opts = {});

/// Completes a plan into `out`, drawing exactly the RNG sequence the
/// monolithic negotiate() would draw for the same inputs (server random,
/// resumption chance, fresh session id) so the stream stays bit-identical
/// whether or not the plan was cached. `hello` supplies the per-connection
/// session id to echo; `out` is reused capacity-preservingly.
void complete_negotiation_into(const NegotiationPlan& plan,
                               const tls::wire::ClientHello& hello,
                               tls::core::Rng& rng, NegotiationResult& out);

/// The alert a failed negotiation puts on the wire (RFC 5246 §7.2.2):
/// version mismatch -> protocol_version, no common cipher ->
/// handshake_failure, client abort on an unoffered suite ->
/// illegal_parameter. kNone has no alert (throws std::logic_error).
tls::wire::Alert alert_for(FailureReason reason);

/// True when `suite` may be used at `version` (AEAD and SHA-2 suites need
/// TLS 1.2; TLS 1.3 suites are exclusive to TLS 1.3).
bool suite_allowed_at_version(const tls::core::CipherSuiteInfo& suite,
                              std::uint16_t version);

}  // namespace tls::handshake
