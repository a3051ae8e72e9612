// Tests for the parallel replication runner and the Lemma-4 approximate
// tally path.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/election/engine.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/direct.hpp"
#include "ld/mech/multi_delegate.hpp"
#include "ld/model/competency_gen.hpp"
#include "sequential_reference.hpp"
#include "support/expect.hpp"
#include "support/thread_pool.hpp"

namespace {

namespace election = ld::election;
namespace g = ld::graph;
namespace mech = ld::mech;
namespace model = ld::model;
using ld::rng::Rng;
using ld::support::ContractViolation;

model::Instance pc_instance(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    return model::Instance(g::make_complete(n),
                           model::pc_competencies(rng, n, 0.02, 0.25), 0.05);
}

TEST(ParallelEval, MatchesSequentialWithinError) {
    const auto inst = pc_instance(150, 1);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions seq;
    seq.replications = 400;
    election::EvalOptions par = seq;
    par.threads = 4;

    Rng rng_a(7), rng_b(7);
    const auto est_seq = election::estimate_correct_probability(m, inst, rng_a, seq);
    const auto est_par = election::estimate_correct_probability(m, inst, rng_b, par);
    EXPECT_EQ(est_par.replications, 400u);
    EXPECT_NEAR(est_par.value, est_seq.value,
                4.0 * (est_seq.std_error + est_par.std_error) + 1e-6);
}

TEST(ParallelEval, DeterministicForFixedSeedAndThreads) {
    const auto inst = pc_instance(100, 2);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 120;
    opts.threads = 3;
    Rng rng_a(11), rng_b(11);
    const auto r1 = election::estimate_correct_probability(m, inst, rng_a, opts);
    const auto r2 = election::estimate_correct_probability(m, inst, rng_b, opts);
    EXPECT_DOUBLE_EQ(r1.value, r2.value);
    EXPECT_DOUBLE_EQ(r1.std_error, r2.std_error);
}

TEST(ParallelEval, MoreThreadsThanReplicationsIsFine) {
    const auto inst = pc_instance(40, 3);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 3;
    opts.threads = 16;
    Rng rng(1);
    const auto est = election::estimate_correct_probability(m, inst, rng, opts);
    EXPECT_EQ(est.replications, 3u);
}

TEST(ParallelEval, ZeroThreadsRejected) {
    const auto inst = pc_instance(20, 4);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.threads = 0;
    Rng rng(1);
    EXPECT_THROW(election::estimate_correct_probability(m, inst, rng, opts),
                 ContractViolation);
}

TEST(ParallelEval, PoolMatchesSequentialReferenceBitForBit) {
    // The pooled fixed-count route keeps the sequential reference's stream
    // split and merge order (tests/sequential_reference.hpp), so for a
    // fixed (seed, threads) pair both estimators must agree with it to the
    // last bit — on every tally route, with and without initial weights,
    // and for multi-delegation's inner vote sampling.
    const auto inst = pc_instance(120, 12);
    const mech::ApprovalSizeThreshold threshold(1);
    const mech::MultiDelegate multi(3, 1);
    std::vector<std::uint64_t> weights(120);
    Rng weight_rng(22);
    for (auto& w : weights) w = 1 + weight_rng.next() % 4;
    // Fewer workers than chunks at threads 4 and 7: the caller helps.
    ld::support::ThreadPool pool(3);
    election::ReplicationEngine engine(pool);

    for (const std::size_t threads : {2, 4, 7}) {
        for (const int route : {0, 1, 2, 3}) {
            for (const bool weighted : {false, true}) {
                SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                                  << " route=" << route
                                                  << " weighted=" << weighted);
                election::EvalOptions opts;
                opts.replications = 160;
                opts.threads = threads;
                opts.engine = &engine;
                opts.tally_epsilon = route == 1 ? 1e-12 : 0.0;
                opts.approximate_tally = route == 2;
                if (weighted) opts.initial_weights = weights;
                const mech::Mechanism& m =
                    route == 3 ? static_cast<const mech::Mechanism&>(multi) : threshold;

                Rng ref_rng(21);
                const auto reference =
                    ld::test::sequential_reference(m, inst, ref_rng, opts);

                Rng rng_a(21), rng_b(21);
                const auto pm =
                    election::estimate_correct_probability(m, inst, rng_a, opts);
                EXPECT_EQ(pm.value, reference.pm.value);
                EXPECT_EQ(pm.std_error, reference.pm.std_error);
                EXPECT_EQ(pm.ci.lo, reference.pm.ci.lo);
                EXPECT_EQ(pm.ci.hi, reference.pm.ci.hi);
                EXPECT_EQ(pm.replications, reference.pm.replications);
                ld::test::expect_same_report(
                    election::estimate_gain(m, inst, rng_b, opts), reference);
                const auto next = ref_rng.next();
                EXPECT_EQ(rng_a.next(), next);
                EXPECT_EQ(rng_b.next(), next);
            }
        }
    }
}

TEST(ParallelEval, PooledThreadCountsAgreeWithinError) {
    const auto inst = pc_instance(130, 13);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions base;
    base.replications = 300;

    std::vector<election::Estimate> estimates;
    for (std::size_t threads : {1u, 2u, 4u}) {
        auto opts = base;
        opts.threads = threads;
        Rng rng(31);
        estimates.push_back(election::estimate_correct_probability(m, inst, rng, opts));
    }
    for (std::size_t i = 1; i < estimates.size(); ++i) {
        EXPECT_NEAR(estimates[i].value, estimates[0].value,
                    4.0 * (estimates[i].std_error + estimates[0].std_error) + 1e-6);
        EXPECT_EQ(estimates[i].replications, 300u);
    }
}

TEST(ParallelEval, WorkspaceReuseAcrossDifferentInstanceSizes) {
    // Two consecutive estimates through one engine exercise workspace
    // buffers sized by the *first* instance on the larger/smaller second
    // one; results must match fresh-engine evaluations exactly.
    const auto small = pc_instance(60, 14);
    const auto large = pc_instance(180, 15);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions reused_opts;
    reused_opts.replications = 80;
    reused_opts.threads = 2;

    election::ReplicationEngine reused;
    reused_opts.engine = &reused;
    Rng rng_a(41), rng_b(42);
    const auto large_reused = election::estimate_gain(m, large, rng_a, reused_opts);
    const auto small_reused = election::estimate_gain(m, small, rng_b, reused_opts);

    auto fresh_opts = reused_opts;
    election::ReplicationEngine fresh_a, fresh_b;
    Rng rng_c(41), rng_d(42);
    fresh_opts.engine = &fresh_a;
    const auto large_fresh = election::estimate_gain(m, large, rng_c, fresh_opts);
    fresh_opts.engine = &fresh_b;
    const auto small_fresh = election::estimate_gain(m, small, rng_d, fresh_opts);

    EXPECT_DOUBLE_EQ(large_reused.pm.value, large_fresh.pm.value);
    EXPECT_DOUBLE_EQ(large_reused.mean_max_weight, large_fresh.mean_max_weight);
    EXPECT_DOUBLE_EQ(small_reused.pm.value, small_fresh.pm.value);
    EXPECT_DOUBLE_EQ(small_reused.mean_max_weight, small_fresh.mean_max_weight);
}

TEST(ParallelEval, MultiDelegationWithoutInnerSamplesRejectedUpFront) {
    const auto inst = pc_instance(30, 16);
    const mech::MultiDelegate m(3, 3);
    election::EvalOptions opts;
    opts.replications = 10;
    opts.inner_samples = 0;  // no exact inner step exists for multi-delegation
    opts.cycle_policy = ld::delegation::CyclePolicy::Discard;
    Rng rng(1);
    EXPECT_THROW(election::estimate_correct_probability(m, inst, rng, opts),
                 ContractViolation);
}

TEST(ParallelEval, GainReportViaThreads) {
    const auto inst = pc_instance(200, 5);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 200;
    opts.threads = 4;
    Rng rng(2);
    const auto report = election::estimate_gain(m, inst, rng, opts);
    EXPECT_GT(report.gain, 0.2);  // PC regime: delegation rescues the vote
    EXPECT_GT(report.mean_delegators, 100.0);
    EXPECT_GE(report.mean_max_weight, 1.0);
}

TEST(ApproxTally, CloseToExactOnModerateInstances) {
    Rng rng(6);
    const auto inst = pc_instance(300, 7);
    const mech::ApprovalSizeThreshold m(1);
    for (int rep = 0; rep < 10; ++rep) {
        const auto out = ld::delegation::realize(m, inst, rng);
        const double exact =
            election::exact_correct_probability(out, inst.competencies());
        const double approx =
            election::approx_correct_probability(out, inst.competencies());
        EXPECT_NEAR(approx, exact, 0.05);
    }
}

TEST(ApproxTally, HandlesDegenerateCases) {
    // All abstain → 0.
    {
        std::vector<ld::mech::Action> actions{ld::mech::Action::delegate_to(1),
                                              ld::mech::Action::abstain()};
        const ld::delegation::DelegationOutcome out(std::move(actions));
        EXPECT_EQ(election::approx_correct_probability(
                      out, model::CompetencyVector({0.5, 0.5})),
                  0.0);
    }
    // Deterministic dictator (p = 1) → 1; (p = 0) → 0.
    for (double p : {0.0, 1.0}) {
        std::vector<ld::mech::Action> actions{ld::mech::Action::vote(),
                                              ld::mech::Action::delegate_to(0)};
        const ld::delegation::DelegationOutcome out(std::move(actions));
        EXPECT_EQ(election::approx_correct_probability(
                      out, model::CompetencyVector({p, 0.5})),
                  p);
    }
}

TEST(ApproxTally, EvaluatorFlagProducesSimilarGain) {
    const auto inst = pc_instance(250, 8);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions exact_opts;
    exact_opts.replications = 150;
    auto approx_opts = exact_opts;
    approx_opts.approximate_tally = true;
    Rng rng_a(3), rng_b(3);
    const auto exact = election::estimate_gain(m, inst, rng_a, exact_opts);
    const auto approx = election::estimate_gain(m, inst, rng_b, approx_opts);
    EXPECT_NEAR(approx.gain, exact.gain, 0.05);
}

TEST(ApproxTally, ScalesToHugeInstances) {
    // n = 50k would be prohibitive for the exact DP; the approximation
    // finishes quickly and agrees with the Condorcet limit.
    Rng rng(9);
    const std::size_t n = 50000;
    std::vector<ld::mech::Action> actions(n, ld::mech::Action::vote());
    const ld::delegation::DelegationOutcome out(std::move(actions));
    const auto p = model::uniform_competencies(rng, n, 0.51, 0.55);
    const double approx = election::approx_correct_probability(out, p);
    EXPECT_GT(approx, 0.999);  // mean 0.53, margin ~ 30 sigma
}

}  // namespace
