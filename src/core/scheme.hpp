// Scheme catalogue: every transport stack evaluated in the paper, expressed
// as (intra CC, inter CC, intra LB, inter LB, EC on/off, marking source) and
// named once, in the table in scheme.cpp that --scheme, farm specs, benches
// and tests all look names up in:
//
//   uno          — UnoCC + UnoRC (UnoLB + (8,2) erasure coding), phantom ECN
//   uno+ecmp     — UnoCC + ECMP, no EC ("Uno+ECMP" in Figs 9/10/12)
//   gemini       — Gemini CC + ECMP, physical RED ECN
//   mprdma+bbr   — MPRDMA (intra, packet spraying) + BBR (inter, ECMP)
//   swift+bbr    — Swift (intra, spraying) + BBR (inter, ECMP)
//   dctcp        — classic DCTCP + ECMP (extra baseline / test vehicle)
//   spray, plb, reps, unolb, each also +ec
//                — UnoCC over one Fig 13 load balancer, with or without EC;
//                  UnoLB with EC is "uno" itself
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "lb/loadbalancer.hpp"
#include "transport/cc.hpp"
#include "transport/flow.hpp"

namespace uno {

enum class CcKind { kUno, kGemini, kMprdma, kBbr, kDctcp, kSwift };
enum class LbKind { kEcmp, kRps, kPlb, kUnoLb, kReps };

struct SchemeSpec {
  std::string name;
  CcKind cc_intra = CcKind::kUno;
  CcKind cc_inter = CcKind::kUno;
  LbKind lb_intra = LbKind::kUnoLb;
  LbKind lb_inter = LbKind::kUnoLb;
  bool ec_inter = false;        // erasure-code inter-DC flows
  bool phantom_marking = false; // ECN from phantom queues (Uno) vs physical RED
  /// Annulus-style near-source QCN feedback on source-side ports (the
  /// paper's footnote-4 future-work add-on; pairs with oversubscription).
  bool annulus = false;

  /// The catalogue entry called `name`; throws std::invalid_argument when
  /// the catalogue has none (scheme_names() lists them).
  static SchemeSpec named(const std::string& name);
  /// Full Uno, the default: named("uno").
  static SchemeSpec uno();
  /// Uno with the Annulus near-source feedback add-on enabled.
  static SchemeSpec uno_annulus();
  /// All schemes with spraying (Fig. 8 incast uses spraying everywhere).
  SchemeSpec with_spray() const;
};

/// Every catalogue name, in catalogue order (the order --help lists).
std::vector<std::string> scheme_names();

/// Build the congestion controller for one flow.
std::unique_ptr<CongestionControl> make_cc(CcKind kind, const CcParams& cc,
                                           const UnoConfig& cfg);

/// Build the load balancer for one flow.
std::unique_ptr<LoadBalancer> make_lb(LbKind kind, std::uint64_t flow_id,
                                      std::uint16_t num_paths, Time base_rtt,
                                      const UnoConfig& cfg, std::uint64_t seed);

}  // namespace uno
