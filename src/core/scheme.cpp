#include "core/scheme.hpp"

#include <stdexcept>

#include "transport/bbr.hpp"
#include "transport/dctcp.hpp"
#include "transport/gemini.hpp"
#include "transport/mprdma.hpp"
#include "transport/swift.hpp"
#include "transport/unocc.hpp"

namespace uno {

namespace {

/// The catalogue: the one place a scheme name is bound to its stack.
const std::vector<SchemeSpec>& catalogue() {
  using C = CcKind;
  using L = LbKind;
  // name, intra CC, inter CC, intra LB, inter LB, EC on inter flows, phantom ECN
  static const std::vector<SchemeSpec> table = {
      {"uno", C::kUno, C::kUno, L::kUnoLb, L::kUnoLb, true, true},
      {"uno+ecmp", C::kUno, C::kUno, L::kEcmp, L::kEcmp, false, true},
      {"gemini", C::kGemini, C::kGemini, L::kEcmp, L::kEcmp, false, false},
      // MP-RDMA and Swift spray packets intra-DC; BBR is single-path.
      {"mprdma+bbr", C::kMprdma, C::kBbr, L::kRps, L::kEcmp, false, false},
      {"swift+bbr", C::kSwift, C::kBbr, L::kRps, L::kEcmp, false, false},
      {"dctcp", C::kDctcp, C::kDctcp, L::kEcmp, L::kEcmp, false, false},
      // Fig 13's load balancers on UnoCC, without and with EC.
      {"spray", C::kUno, C::kUno, L::kRps, L::kRps, false, true},
      {"spray+ec", C::kUno, C::kUno, L::kRps, L::kRps, true, true},
      {"plb", C::kUno, C::kUno, L::kPlb, L::kPlb, false, true},
      {"plb+ec", C::kUno, C::kUno, L::kPlb, L::kPlb, true, true},
      {"reps", C::kUno, C::kUno, L::kReps, L::kReps, false, true},
      {"reps+ec", C::kUno, C::kUno, L::kReps, L::kReps, true, true},
      {"unolb", C::kUno, C::kUno, L::kUnoLb, L::kUnoLb, false, true},
  };
  return table;
}

}  // namespace

SchemeSpec SchemeSpec::named(const std::string& name) {
  for (const SchemeSpec& s : catalogue())
    if (s.name == name) return s;
  throw std::invalid_argument("unknown scheme: " + name);
}

SchemeSpec SchemeSpec::uno() { return named("uno"); }

SchemeSpec SchemeSpec::uno_annulus() {
  SchemeSpec s = uno();
  s.name += "+annulus";
  s.annulus = true;
  return s;
}

std::vector<std::string> scheme_names() {
  std::vector<std::string> names;
  for (const SchemeSpec& s : catalogue()) names.push_back(s.name);
  return names;
}

SchemeSpec SchemeSpec::with_spray() const {
  SchemeSpec s = *this;
  s.name += "+spray";
  s.lb_intra = s.lb_inter = LbKind::kRps;
  return s;
}

std::unique_ptr<CongestionControl> make_cc(CcKind kind, const CcParams& cc,
                                           const UnoConfig& cfg) {
  switch (kind) {
    case CcKind::kUno: {
      UnoCc::Params p;
      p.alpha_fraction = cfg.alpha_fraction;
      p.beta = cfg.beta;
      p.k_fraction = cfg.k_fraction;
      p.enable_qa = cfg.unocc_enable_qa;
      p.md_scale_decay = cfg.unocc_gentle_md;
      p.enable_pacing = cfg.unocc_enable_pacing;
      // 0 -> intra RTT (unified); otherwise react at the flow's own RTT,
      // which is exactly the Gemini granularity the paper argues against.
      p.epoch_period = cfg.unocc_unified_epoch ? 0 : cc.base_rtt;
      return std::make_unique<UnoCc>(cc, p);
    }
    case CcKind::kGemini:
      return std::make_unique<GeminiCc>(cc, GeminiCc::Params{});
    case CcKind::kMprdma:
      return std::make_unique<MprdmaCc>(cc);
    case CcKind::kBbr:
      return std::make_unique<BbrCc>(cc);
    case CcKind::kDctcp:
      return std::make_unique<DctcpCc>(cc);
    case CcKind::kSwift:
      return std::make_unique<SwiftCc>(cc);
  }
  return nullptr;
}

std::unique_ptr<LoadBalancer> make_lb(LbKind kind, std::uint64_t flow_id,
                                      std::uint16_t num_paths, Time base_rtt,
                                      const UnoConfig& cfg, std::uint64_t seed) {
  switch (kind) {
    case LbKind::kEcmp:
      return std::make_unique<EcmpLb>(flow_id, num_paths);
    case LbKind::kRps:
      return std::make_unique<RpsLb>(num_paths, Rng::stream(seed, flow_id * 2 + 1));
    case LbKind::kPlb: {
      PlbLb::Params p;
      p.round_duration = base_rtt;
      return std::make_unique<PlbLb>(p, flow_id, num_paths,
                                     Rng::stream(seed, flow_id * 2 + 1));
    }
    case LbKind::kReps:
      return std::make_unique<RepsLb>(num_paths, Rng::stream(seed, flow_id * 2 + 1));
    case LbKind::kUnoLb: {
      UnoLb::Params p;
      p.num_subflows = cfg.subflows();
      p.base_rtt = base_rtt;
      return std::make_unique<UnoLb>(p, num_paths, Rng::stream(seed, flow_id * 2 + 1));
    }
  }
  return nullptr;
}

}  // namespace uno
