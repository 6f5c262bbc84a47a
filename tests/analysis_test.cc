// Tests for the cost model (§6.1) and the exposure analysis (§5).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/compromise.h"
#include "analysis/cost_model.h"
#include "analysis/exposure.h"
#include "analysis/tradeoff.h"
#include "sim/device_model.h"

namespace tcells::analysis {
namespace {

CostParams PaperParams() {
  CostParams p;  // defaults are the paper's fixed parameters
  return p;
}

// ---------------------------------------------------------------------------
// Cost model

TEST(CostModelTest, SAggOptimalAlphaMinimizesTq) {
  // f(alpha) = (alpha+1) log_alpha(Nt/G) is minimized near 3.6 (§6.1.1).
  CostParams p = PaperParams();
  p.available_fraction = 1.0;  // remove wave effects
  auto tq_at = [&](double alpha) {
    CostParams q = p;
    q.alpha = alpha;
    return SAggCost(q).tq_seconds;
  };
  double at_opt = tq_at(SAggOptimalAlpha());
  EXPECT_LE(at_opt, tq_at(2.0) * 1.15);
  EXPECT_LT(at_opt, tq_at(10.0));
  EXPECT_LT(at_opt, tq_at(100.0));
}

TEST(CostModelTest, SAggTqGrowsWithG) {
  // Fig 10e: S_Agg is the protocol whose T_Q grows with G.
  CostParams p = PaperParams();
  double small = SAggCost(p).tq_seconds;
  p.groups = 1e5;
  double large = SAggCost(p).tq_seconds;
  EXPECT_GT(large, small * 10);
}

TEST(CostModelTest, TagProtocolsTqShrinksWithG) {
  // Fig 10e: for fixed-noise and histogram protocols, T_Q falls as G grows
  // (groups get smaller and are processed independently in parallel).
  for (const char* proto : {"R2_Noise", "ED_Hist"}) {
    CostParams p = PaperParams();
    p.groups = 10;
    double few_groups = CostFor(proto, p)->tq_seconds;
    p.groups = 1e5;
    double many_groups = CostFor(proto, p)->tq_seconds;
    EXPECT_LT(many_groups, few_groups) << proto;
  }
}

TEST(CostModelTest, CNoiseDegradesWithG) {
  // C_Noise's noise volume is n_d - 1 ≈ G - 1 per true tuple: unlike the
  // fixed-nf flavours, growing G inflates the noise and hurts T_Q (§4.3
  // "C_Noise also incurs large noise if G is big").
  CostParams p = PaperParams();
  p.groups = 10;
  double few_groups = CNoiseCost(p).tq_seconds;
  p.groups = 1e5;
  double many_groups = CNoiseCost(p).tq_seconds;
  EXPECT_GT(many_groups, few_groups);
}

TEST(CostModelTest, SAggBeatsEdHistAtSmallGAndLosesAtLargeG) {
  // §6.4: S_Agg outperforms ED_Hist for G < ~10, is dominated for larger G.
  CostParams p = PaperParams();
  p.groups = 2;
  EXPECT_LT(SAggCost(p).tq_seconds, EdHistCost(p).tq_seconds);
  p.groups = 1e4;
  EXPECT_GT(SAggCost(p).tq_seconds, EdHistCost(p).tq_seconds);
}

TEST(CostModelTest, NoiseLoadDominates) {
  // Fig 10c/d: Noise protocols carry the largest total load (fake tuples),
  // and R1000 carries more than R2.
  CostParams p = PaperParams();
  double s_agg = SAggCost(p).load_bytes;
  double ed = EdHistCost(p).load_bytes;
  CostParams p2 = p;
  p2.nf = 2;
  double r2 = RnfNoiseCost(p2).load_bytes;
  CostParams p1000 = p;
  p1000.nf = 1000;
  double r1000 = RnfNoiseCost(p1000).load_bytes;
  EXPECT_GT(r1000, r2);
  EXPECT_GT(r2, s_agg);
  EXPECT_GT(r1000, ed);
}

TEST(CostModelTest, NoiseLoadConstantInG) {
  // Fig 10c: noise volume depends on N_t only, so Load_Q stays ~constant
  // as G grows.
  CostParams p = PaperParams();
  p.nf = 1000;
  p.groups = 10;
  double a = RnfNoiseCost(p).load_bytes;
  p.groups = 1e5;
  double b = RnfNoiseCost(p).load_bytes;
  EXPECT_NEAR(a / b, 1.0, 0.05);
}

TEST(CostModelTest, PtdsGrowsWithGForTagProtocols) {
  // Fig 10a: tag-based protocols can mobilize ~linearly more TDSs as G grows;
  // S_Agg mobilizes fewer.
  CostParams p = PaperParams();
  p.groups = 10;
  double ed10 = EdHistCost(p).ptds;
  double sagg10 = SAggCost(p).ptds;
  p.groups = 1e4;
  double ed1e4 = EdHistCost(p).ptds;
  double sagg1e4 = SAggCost(p).ptds;
  EXPECT_GT(ed1e4, ed10 * 10);
  EXPECT_LT(sagg1e4, sagg10);
}

TEST(CostModelTest, SAggInsensitiveToAvailabilityOthersNot) {
  // Fig 10 i/e/j (§6.3 elasticity): scarcity hurts every protocol except
  // S_Agg, whose parallelism demand is small.
  for (const char* proto : {"S_Agg", "C_Noise", "ED_Hist", "R1000_Noise"}) {
    CostParams scarce = PaperParams();
    scarce.available_fraction = 0.01;
    CostParams abundant = PaperParams();
    abundant.available_fraction = 1.0;
    double ratio = CostFor(proto, scarce)->tq_seconds /
                   CostFor(proto, abundant)->tq_seconds;
    if (std::string(proto) == "S_Agg") {
      EXPECT_NEAR(ratio, 1.0, 1e-9) << proto;
    } else {
      EXPECT_GT(ratio, 2.0) << proto;
    }
  }
}

TEST(CostModelTest, TlocalWorstForSAggAndNoiseAtLargeG) {
  // Fig 10g at large G: S_Agg's T_local grows while ED_Hist's shrinks.
  CostParams p = PaperParams();
  p.groups = 1e5;
  EXPECT_GT(SAggCost(p).tlocal_seconds, EdHistCost(p).tlocal_seconds);
  CostParams p1000 = p;
  p1000.nf = 1000;
  EXPECT_GT(RnfNoiseCost(p1000).tlocal_seconds,
            EdHistCost(p).tlocal_seconds);
}

TEST(CostModelTest, CNoiseEqualsRnfWithDomainCardinality) {
  CostParams p = PaperParams();
  p.domain_cardinality = 500;
  CostParams q = PaperParams();
  q.nf = 499;
  EXPECT_DOUBLE_EQ(CNoiseCost(p).load_bytes, RnfNoiseCost(q).load_bytes);
}


TEST(CostModelTest, PhaseCostsFilled) {
  CostParams p = PaperParams();
  for (const char* proto : {"S_Agg", "R2_Noise", "C_Noise", "ED_Hist"}) {
    CostMetrics m = CostFor(proto, p).ValueOrDie();
    EXPECT_DOUBLE_EQ(m.collection_seconds_per_tds, p.TupleSeconds()) << proto;
    EXPECT_GT(m.filtering_seconds, 0.0) << proto;
  }
  // Filtering waves appear when the covering result exceeds availability.
  CostParams starved = PaperParams();
  starved.groups = 1e6;
  starved.available_fraction = 0.01;
  EXPECT_GT(SAggCost(starved).filtering_seconds,
            SAggCost(PaperParams()).filtering_seconds);
}

TEST(CostModelTest, SAggRamFeasibilityBound) {
  // §4.2: with the board's 64 KB RAM and ~48 B per group state, S_Agg stops
  // being feasible somewhere above a thousand groups.
  CostParams p = PaperParams();
  p.groups = 1000;
  EXPECT_TRUE(SAggCost(p).ram_feasible);
  p.groups = 1e5;
  EXPECT_FALSE(SAggCost(p).ram_feasible);
  // Tag-based protocols never trip it.
  EXPECT_TRUE(EdHistCost(p).ram_feasible);
  EXPECT_TRUE(RnfNoiseCost(p).ram_feasible);
}

TEST(CostModelTest, FanOutOptimaAndAvailabilityCaps) {
  CostParams p = PaperParams();
  p.available_fraction = 1.0;
  FanOut f = PlanFanOut(p);
  // ceil(log_3.6(10^3)) = ceil(5.39); the tag optima are uncapped here.
  EXPECT_EQ(f.sagg_levels, 6);
  EXPECT_DOUBLE_EQ(f.n_nb, std::sqrt(3.0 * 1e3));
  EXPECT_DOUBLE_EQ(f.n_ed, std::pow(5e3, 2.0 / 3.0));
  EXPECT_DOUBLE_EQ(f.m_ed, std::cbrt(5e3));
  // With A = 10^4, at most A/G = 10 TDSs per group and A·h/G = 50 per
  // bucket; S_Agg's levels do not depend on A.
  p.available_fraction = 0.01;
  f = PlanFanOut(p);
  EXPECT_EQ(f.sagg_levels, 6);
  EXPECT_DOUBLE_EQ(f.n_nb, 10);
  EXPECT_DOUBLE_EQ(f.n_ed, 50);
  EXPECT_DOUBLE_EQ(f.m_ed, 10);
}

TEST(CostModelTest, CostForDispatch) {
  CostParams p = PaperParams();
  EXPECT_GT(CostFor("S_Agg", p)->tq_seconds, 0);
  EXPECT_GT(CostFor("R2_Noise", p)->load_bytes,
            CostFor("S_Agg", p)->load_bytes);
  EXPECT_EQ(CostFor("R1000_Noise", p)->load_bytes,
            [&] { CostParams q = p; q.nf = 1000; return RnfNoiseCost(q).load_bytes; }());
  EXPECT_EQ(CostFor("C_Noise", p)->load_bytes, CNoiseCost(p).load_bytes);
  EXPECT_EQ(CostFor("ED_Hist", p)->load_bytes, EdHistCost(p).load_bytes);
}

TEST(CostModelTest, UnknownOrMalformedProtocolIsInvalidArgument) {
  // An unknown name, or an R<nf>_Noise whose nf is not a finite
  // non-negative number, is an error — never a silent nf = 0 or an
  // all-zero cost.
  CostParams p = PaperParams();
  for (const char* name : {"unknown", "Rx_Noise", "R_Noise", "R2", "R-1_Noise",
                           "Rnan_Noise", "R2_Noisy", "s_agg"}) {
    EXPECT_TRUE(CostFor(name, p).status().IsInvalidArgument()) << name;
    EXPECT_TRUE(CompromiseFor(name, CompromiseParams{}).status()
                    .IsInvalidArgument())
        << name;
  }
}

TEST(DeviceModelTest, PaperCalibration) {
  // §6.2/§6.3: with 16-byte tuples T_t = 16.2 µs transfer + 1.4 µs crypto +
  // 2.0 µs CPU = 19.6 µs, dominated by transfer.
  sim::DeviceModel dm;
  double tt = dm.PerTupleSeconds(16);
  EXPECT_NEAR(tt, 19.6e-6, 0.05e-6);
  EXPECT_NEAR(dm.TransferSeconds(16), 16.2e-6, 0.05e-6);
  EXPECT_DOUBLE_EQ(tt, dm.BusySeconds(16, 1));
  EXPECT_GT(dm.TransferSeconds(16), dm.CryptoSeconds(16) * 5);
  // Fig 9b: for a 4 KB partition, transfer dominates crypto.
  EXPECT_GT(dm.TransferSeconds(4096), dm.CryptoSeconds(4096));
}

// ---------------------------------------------------------------------------
// Exposure (§5)

TEST(ExposureTest, FormulaEndpoints) {
  EXPECT_DOUBLE_EQ(PlaintextExposure(), 1.0);
  EXPECT_DOUBLE_EQ(NDetExposure({5, 5, 8}), 1.0 / 200.0);
  EXPECT_DOUBLE_EQ(CNoiseExposure({10}), 0.1);
  EXPECT_DOUBLE_EQ(EdHistMinExposure({4, 5}), 0.05);
}

TEST(ExposureTest, DetEncUniqueFrequenciesFullyExposed) {
  // Fig 7: when every value has a distinct frequency, matching is certain.
  std::map<int64_t, uint64_t> freq = {{1, 1}, {2, 2}, {3, 3}};
  double eps = ColumnExposure(ClassesForDetEnc(freq));
  EXPECT_DOUBLE_EQ(eps, 1.0);
}

TEST(ExposureTest, DetEncTiedFrequenciesShareAnonymity) {
  // Two values with the same frequency -> each guessed with p = 1/2.
  std::map<int64_t, uint64_t> freq = {{1, 5}, {2, 5}};
  EXPECT_DOUBLE_EQ(ColumnExposure(ClassesForDetEnc(freq)), 0.5);
}

TEST(ExposureTest, FlatHistogramReachesMinimum) {
  // 4 buckets, equal depth, 2 values each: anonymity set = all 8 values.
  std::vector<BucketContent> buckets(4, BucketContent{10, 2});
  EXPECT_DOUBLE_EQ(ColumnExposure(ClassesForHistogram(buckets)), 1.0 / 8.0);
}

TEST(ExposureTest, HistogramExposureDecreasesWithCollision) {
  // Skewed value frequencies. At h=1 (bucket == value) the distinct depths
  // are fully matchable; merging values into equi-depth buckets removes the
  // frequency signal.
  std::vector<BucketContent> h1 = {{40, 1}, {25, 1}, {20, 1}, {15, 1}};
  std::vector<BucketContent> h2 = {{50, 2}, {50, 2}};  // equalized depths
  double exposed = ColumnExposure(ClassesForHistogram(h1));
  double hidden = ColumnExposure(ClassesForHistogram(h2));
  EXPECT_DOUBLE_EQ(exposed, 1.0);       // unique depths -> certain matching
  EXPECT_DOUBLE_EQ(hidden, 1.0 / 4.0);  // anonymity set = all 4 values
  EXPECT_GT(exposed, hidden);
}

TEST(ExposureTest, NoiseReducesExposure) {
  // Skewed truth: distinct frequencies, fully exposed without noise.
  std::map<int64_t, uint64_t> truth = {{1, 100}, {2, 50}, {3, 10}};
  double bare = ColumnExposure(ClassesForDetEnc(truth));
  // Uniform heavy noise equalizes observed frequencies.
  std::map<int64_t, uint64_t> fakes = {{1, 1000 - 100 + 0},
                                       {2, 1000 - 50 + 0},
                                       {3, 1000 - 10 + 0}};
  double noised = ColumnExposure(ClassesForNoise(truth, fakes));
  EXPECT_LT(noised, bare);
  EXPECT_DOUBLE_EQ(noised, 1.0 / 3.0);  // all classes same observed size
}

TEST(ExposureTest, WeightingByTrueTuples) {
  // A class with no true tuples contributes candidates but no weight.
  std::vector<ObservedClass> classes = {
      {10, 10, 1},  // exposed class
      {10, 0, 1},   // noise-only class with same cardinality
  };
  EXPECT_DOUBLE_EQ(ColumnExposure(classes), 0.5);
}

TEST(ExposureTest, EmptyInput) {
  EXPECT_DOUBLE_EQ(ColumnExposure({}), 0.0);
}


// ---------------------------------------------------------------------------
// Compromise model (future-work threat extension)

TEST(CompromiseModelTest, RawFractionUniformAcrossProtocols) {
  CompromiseParams p;
  p.compromised = 100;
  for (const char* proto : {"S_Agg", "R2_Noise", "C_Noise", "ED_Hist"}) {
    EXPECT_DOUBLE_EQ(CompromiseFor(proto, p)->raw_tuple_fraction,
                     100.0 / 1e5)
        << proto;
  }
}

TEST(CompromiseModelTest, MonotoneInCompromisedCount) {
  CompromiseParams lo, hi;
  lo.compromised = 10;
  hi.compromised = 1000;
  for (const char* proto : {"S_Agg", "R2_Noise", "ED_Hist"}) {
    EXPECT_LT(CompromiseFor(proto, lo)->group_aggregate_fraction,
              CompromiseFor(proto, hi)->group_aggregate_fraction)
        << proto;
  }
}

TEST(CompromiseModelTest, SAggHasTheAllGroupsSinglePoint) {
  CompromiseParams p;
  p.compromised = 100;  // 0.1% of the pool
  double s_agg = CompromiseFor("S_Agg", p)->all_groups_probability;
  double ed = CompromiseFor("ED_Hist", p)->all_groups_probability;
  double noise = CompromiseFor("R2_Noise", p)->all_groups_probability;
  // One compromised root leaks everything in S_Agg; tag-based protocols
  // would need ~G independent compromised placements.
  EXPECT_DOUBLE_EQ(s_agg, 1e-3);
  EXPECT_LT(ed, 1e-12);
  EXPECT_LT(noise, 1e-12);
}

TEST(CompromiseModelTest, BoundsAndSaturation) {
  CompromiseParams p;
  p.compromised = p.Available();  // everything compromised
  for (const char* proto : {"S_Agg", "R2_Noise", "ED_Hist"}) {
    auto e = CompromiseFor(proto, p).ValueOrDie();
    EXPECT_DOUBLE_EQ(e.raw_tuple_fraction, 1.0) << proto;
    EXPECT_DOUBLE_EQ(e.group_aggregate_fraction, 1.0) << proto;
  }
  p.compromised = 0;
  auto none = CompromiseFor("S_Agg", p).ValueOrDie();
  EXPECT_DOUBLE_EQ(none.raw_tuple_fraction, 0.0);
  EXPECT_DOUBLE_EQ(none.group_aggregate_fraction, 0.0);
}

// ---------------------------------------------------------------------------
// Trade-off rankings (Fig 11)

TEST(TradeoffTest, RendersAllAxes) {
  std::string fig = RenderTradeoffFigure(PaperParams());
  EXPECT_NE(fig.find("Confidentiality"), std::string::npos);
  EXPECT_NE(fig.find("Elasticity"), std::string::npos);
  EXPECT_NE(fig.find("S_Agg"), std::string::npos);
}

TEST(TradeoffTest, ConfidentialityBestIsSAgg) {
  auto ranking =
      RankAxis(TradeoffAxis::kConfidentiality, PaperParams());
  EXPECT_EQ(ranking.back(), "S_Agg");
}

TEST(TradeoffTest, LocalResourceWorstIncludesSAggOrHeavyNoise) {
  // Fig 11: S_Agg and R1000_Noise sit at the 'worst' end of the feasibility
  // axis; ED_Hist is best.
  auto ranking =
      RankAxis(TradeoffAxis::kFeasibilityLocalResource, PaperParams());
  ASSERT_EQ(ranking.size(), 5u);
  EXPECT_TRUE(ranking[0] == "S_Agg" || ranking[0] == "R1000_Noise");
  EXPECT_EQ(ranking.back(), "ED_Hist");
}

TEST(TradeoffTest, ResponsivenessSmallGBestIsSAgg) {
  auto ranking =
      RankAxis(TradeoffAxis::kResponsivenessSmallG, PaperParams());
  EXPECT_EQ(ranking.back(), "S_Agg");
}

TEST(TradeoffTest, ResponsivenessLargeGWorstIsSAgg) {
  auto ranking =
      RankAxis(TradeoffAxis::kResponsivenessLargeG, PaperParams());
  EXPECT_EQ(ranking.front(), "S_Agg");
}

TEST(TradeoffTest, GlobalResourceBestIsSAggWorstIsHeavyNoise) {
  // Fig 10c/d: noise protocols carry the highest load; "other protocols
  // generate much lower and roughly comparable loads" — so S_Agg and ED_Hist
  // share the best end of the axis.
  auto ranking = RankAxis(TradeoffAxis::kGlobalResource, PaperParams());
  ASSERT_EQ(ranking.size(), 5u);
  EXPECT_EQ(ranking.front(), "R1000_Noise");
  std::set<std::string> best_two = {ranking[3], ranking[4]};
  EXPECT_TRUE(best_two.count("S_Agg"));
  EXPECT_TRUE(best_two.count("ED_Hist"));
}

}  // namespace
}  // namespace tcells::analysis
