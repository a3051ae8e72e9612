// Tests for every graph generator, including parameterized sweeps over
// sizes (regularity, degree caps/floors, connectivity).

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/restrictions.hpp"
#include "rng/rng.hpp"
#include "support/expect.hpp"

namespace {

using ld::graph::Graph;
using ld::graph::Vertex;
using ld::rng::Rng;
using ld::support::ContractViolation;
namespace g = ld::graph;

TEST(Complete, HasAllEdges) {
    const Graph k5 = g::make_complete(5);
    EXPECT_EQ(k5.edge_count(), 10u);
    EXPECT_TRUE(g::is_complete(k5));
}

TEST(Complete, TrivialSizes) {
    EXPECT_EQ(g::make_complete(0).vertex_count(), 0u);
    EXPECT_EQ(g::make_complete(1).edge_count(), 0u);
    EXPECT_EQ(g::make_complete(2).edge_count(), 1u);
}

TEST(Star, CentreConnectsToAllLeaves) {
    const Graph s = g::make_star(9);
    EXPECT_EQ(s.edge_count(), 8u);
    EXPECT_EQ(s.degree(0), 8u);
    for (Vertex v = 1; v < 9; ++v) {
        EXPECT_EQ(s.degree(v), 1u);
        EXPECT_TRUE(s.has_edge(0, v));
    }
}

TEST(PathAndCycle, Shapes) {
    const Graph p = g::make_path(5);
    EXPECT_EQ(p.edge_count(), 4u);
    EXPECT_EQ(p.degree(0), 1u);
    EXPECT_EQ(p.degree(2), 2u);

    const Graph c = g::make_cycle(5);
    EXPECT_EQ(c.edge_count(), 5u);
    for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(c.degree(v), 2u);
    EXPECT_THROW(g::make_cycle(2), ContractViolation);
}

TEST(Grid, FourNeighbourLattice) {
    const Graph grid = g::make_grid(3, 4);
    EXPECT_EQ(grid.vertex_count(), 12u);
    // 3 rows × 3 horizontal + 2 rows × 4 vertical = 9 + 8.
    EXPECT_EQ(grid.edge_count(), 17u);
    EXPECT_EQ(grid.degree(0), 2u);   // corner
    EXPECT_EQ(grid.degree(5), 4u);   // interior (row 1, col 1)
    EXPECT_TRUE(g::is_connected(grid));
}

TEST(Grid, RejectsZeroDimensionsAndOverflow) {
    EXPECT_THROW(g::make_grid(0, 5), ContractViolation);
    EXPECT_THROW(g::make_grid(5, 0), ContractViolation);
    // rows * cols wraps 64 bits without the guard.
    const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
    EXPECT_THROW(g::make_grid(huge, 3), ContractViolation);
    // Fits 64 bits but not the 32-bit vertex id space.
    EXPECT_THROW(g::make_grid(std::size_t{1} << 20, std::size_t{1} << 20),
                 ContractViolation);
}

TEST(Generators, RejectSizesBeyondVertexRange) {
    Rng rng(6);
    const std::size_t beyond = (std::size_t{1} << 32) + 2;
    EXPECT_THROW(g::make_erdos_renyi_gnm(rng, beyond, 1), ContractViolation);
    EXPECT_THROW(g::make_random_d_regular(rng, beyond, 2), ContractViolation);
    EXPECT_THROW(g::make_barabasi_albert(rng, beyond, 2), ContractViolation);
    EXPECT_THROW(g::make_bounded_degree(rng, beyond, 2, 1), ContractViolation);
    EXPECT_THROW(g::make_complete(beyond), ContractViolation);
}

TEST(Generators, CompleteEqualsBuilderReference) {
    for (std::size_t n = 0; n <= 40; ++n) {
        g::GraphBuilder b(n);
        for (Vertex u = 0; u < n; ++u) {
            for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
        }
        EXPECT_EQ(g::make_complete(n), b.build()) << "n = " << n;
    }
}

TEST(BoundedDegree, InfeasibleTargetDetectedWithoutOverflow) {
    Rng rng(7);
    // target_edges * 2 wraps 64 bits; the 128-bit compare must still
    // reject instead of silently accepting the wrapped value.
    EXPECT_THROW(
        g::make_bounded_degree(rng, 10, 2, std::numeric_limits<std::size_t>::max()),
        ContractViolation);
}

TEST(ErdosRenyiGnp, EdgeCountConcentratesAroundMean) {
    Rng rng(1);
    const std::size_t n = 200;
    const double p = 0.1;
    const Graph er = g::make_erdos_renyi_gnp(rng, n, p);
    const double expected = p * n * (n - 1) / 2.0;
    EXPECT_NEAR(static_cast<double>(er.edge_count()), expected, 0.15 * expected);
}

TEST(ErdosRenyiGnp, ExtremesAreExact) {
    Rng rng(2);
    EXPECT_EQ(g::make_erdos_renyi_gnp(rng, 20, 0.0).edge_count(), 0u);
    EXPECT_TRUE(g::is_complete(g::make_erdos_renyi_gnp(rng, 20, 1.0)));
    EXPECT_THROW(g::make_erdos_renyi_gnp(rng, 5, 1.5), ContractViolation);
}

TEST(ErdosRenyiGnm, ExactEdgeCount) {
    Rng rng(3);
    const Graph er = g::make_erdos_renyi_gnm(rng, 30, 100);
    EXPECT_EQ(er.edge_count(), 100u);
    EXPECT_THROW(g::make_erdos_renyi_gnm(rng, 4, 7), ContractViolation);
}

TEST(DRegular, PreconditionsChecked) {
    Rng rng(4);
    EXPECT_THROW(g::make_random_d_regular(rng, 4, 4), ContractViolation);  // d >= n
    EXPECT_THROW(g::make_random_d_regular(rng, 5, 3), ContractViolation);  // odd n*d
}

TEST(DRegular, ZeroDegreeGivesEmptyGraph) {
    Rng rng(5);
    const Graph zero = g::make_random_d_regular(rng, 6, 0);
    EXPECT_EQ(zero.edge_count(), 0u);
}

class DRegularSweep : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DRegularSweep, IsSimpleAndRegular) {
    const auto [n, d] = GetParam();
    Rng rng(100 + n * 7 + d);
    const Graph gr = g::make_random_d_regular(rng, n, d);
    EXPECT_EQ(gr.vertex_count(), n);
    EXPECT_TRUE(g::is_d_regular(gr, d)) << "n=" << n << " d=" << d;
    EXPECT_EQ(gr.edge_count(), n * d / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DRegularSweep,
                         ::testing::Values(std::make_tuple(10, 3),
                                           std::make_tuple(16, 4),
                                           std::make_tuple(50, 7),
                                           std::make_tuple(128, 8),
                                           std::make_tuple(401, 6),
                                           std::make_tuple(1000, 16)));

TEST(DOut, DegreesAreAtLeastD) {
    Rng rng(6);
    const std::size_t n = 100, d = 5;
    const Graph gr = g::make_d_out(rng, n, d);
    // Every vertex initiated d edges; merging can only add more.
    for (Vertex v = 0; v < n; ++v) EXPECT_GE(gr.degree(v), d);
    const auto stats = g::degree_stats(gr);
    EXPECT_NEAR(stats.mean, 2.0 * d, 1.5);
}

TEST(BoundedDegree, RespectsCap) {
    Rng rng(7);
    const std::size_t n = 200, cap = 6;
    const Graph gr = g::make_bounded_degree(rng, n, cap, n * cap / 4);
    EXPECT_TRUE(g::max_degree_at_most(gr, cap));
    EXPECT_GT(gr.edge_count(), n / 2);  // should place a decent number
}

TEST(BoundedDegree, InfeasibleTargetRejected) {
    Rng rng(8);
    EXPECT_THROW(g::make_bounded_degree(rng, 10, 2, 100), ContractViolation);
}

TEST(MinDegree, RespectsFloorAndConnectivity) {
    Rng rng(9);
    for (std::size_t floor_deg : {2u, 5u, 12u}) {
        const Graph gr = g::make_min_degree_at_least(rng, 100, floor_deg);
        EXPECT_TRUE(g::min_degree_at_least(gr, floor_deg)) << floor_deg;
        EXPECT_TRUE(g::is_connected(gr));
    }
}

TEST(BarabasiAlbert, DegreesAndSkew) {
    Rng rng(10);
    const std::size_t n = 500, m = 3;
    const Graph gr = g::make_barabasi_albert(rng, n, m);
    EXPECT_EQ(gr.vertex_count(), n);
    // Every newcomer adds exactly m edges onto an (m+1)-clique.
    EXPECT_EQ(gr.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
    const auto stats = g::degree_stats(gr);
    EXPECT_GE(stats.min, m);
    // Preferential attachment should make the max degree far above mean.
    EXPECT_GT(stats.asymmetry, 3.0);
    EXPECT_THROW(g::make_barabasi_albert(rng, 3, 3), ContractViolation);
}

TEST(WattsStrogatz, LatticeAndRewired) {
    Rng rng(11);
    const Graph lattice = g::make_watts_strogatz(rng, 50, 4, 0.0);
    EXPECT_TRUE(g::is_d_regular(lattice, 4));
    EXPECT_EQ(lattice.edge_count(), 100u);

    const Graph rewired = g::make_watts_strogatz(rng, 50, 4, 0.5);
    EXPECT_EQ(rewired.vertex_count(), 50u);
    // Rewiring keeps the edge budget (it moves endpoints, not removes).
    EXPECT_NEAR(static_cast<double>(rewired.edge_count()), 100.0, 5.0);
    EXPECT_THROW(g::make_watts_strogatz(rng, 10, 3, 0.1), ContractViolation);
}

TEST(TwoTier, HubCliquePlusSpokes) {
    Rng rng(12);
    const Graph gr = g::make_two_tier(rng, 50, 5, 2);
    // Hubs form K_5.
    for (Vertex u = 0; u < 5; ++u) {
        for (Vertex v = u + 1; v < 5; ++v) EXPECT_TRUE(gr.has_edge(u, v));
    }
    // Leaves touch only hubs, exactly 2 each.
    for (Vertex leaf = 5; leaf < 50; ++leaf) {
        EXPECT_EQ(gr.degree(leaf), 2u);
        for (Vertex w : gr.neighbours(leaf)) EXPECT_LT(w, 5u);
    }
}

}  // namespace
