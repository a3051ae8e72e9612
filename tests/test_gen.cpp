// Tests for the streaming graph-generation subsystem (src/gen/): the
// determinism contract (chunk size, shard partition, and thread count
// never change the generated CSR), facade/legacy equivalence, degree
// sanity for the heterogeneous families, memory-budget enforcement, spec
// parsing, and the gen.* metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "gen/chunked_csr.hpp"
#include "gen/config.hpp"
#include "gen/factory.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "ld/cli/specs.hpp"
#include "rng/rng.hpp"
#include "support/expect.hpp"
#include "support/metrics.hpp"

namespace {

using ld::graph::Graph;
using ld::graph::Vertex;
using ld::support::ContractViolation;
namespace gen = ld::gen;
namespace g = ld::graph;

gen::GeneratorConfig base_config(gen::Family family, std::size_t n,
                                 std::uint64_t seed = 17) {
    gen::GeneratorConfig config;
    config.family = family;
    config.n = n;
    config.seed = seed;
    return config;
}

/// One representative config per family, sized for fast tests.
std::vector<gen::GeneratorConfig> representative_configs() {
    std::vector<gen::GeneratorConfig> configs;
    configs.push_back(base_config(gen::Family::Complete, 60));
    configs.push_back(base_config(gen::Family::Star, 200));
    {
        auto c = base_config(gen::Family::Gnp, 800);
        c.p = 0.01;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::Gnm, 500);
        c.edges = 2000;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::DOut, 400);
        c.degree = 5;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::DRegular, 100);
        c.degree = 4;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::BarabasiAlbert, 600);
        c.degree = 3;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::WattsStrogatz, 400);
        c.degree = 6;
        c.beta = 0.2;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::ChungLu, 900);
        c.gamma = 2.5;
        c.avg_degree = 6.0;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::Hyperbolic, 900);
        c.gamma = 2.7;
        c.avg_degree = 8.0;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::Rmat, 512);
        c.edges = 3000;
        configs.push_back(c);
    }
    return configs;
}

// ------------------------------------------------------- determinism matrix

TEST(GenDeterminism, ChunkSizeNeverChangesTheGraph) {
    for (auto config : representative_configs()) {
        config.chunk_edges = 1 << 16;
        const Graph reference = gen::generate_graph(config);
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                        std::size_t{251}, std::size_t{4096}}) {
            config.chunk_edges = chunk;
            EXPECT_EQ(gen::generate_graph(config), reference)
                << gen::family_name(config.family) << " chunk=" << chunk;
        }
    }
}

TEST(GenDeterminism, ThreadCountNeverChangesTheGraph) {
    auto configs = representative_configs();
    // Row-skewed families large enough that every worker is dealt many
    // cells and many sort blocks.
    configs.push_back(base_config(gen::Family::Complete, 400));
    {
        auto c = base_config(gen::Family::ChungLu, 6000);
        c.gamma = 2.5;
        c.avg_degree = 8.0;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::Hyperbolic, 9000);
        c.gamma = 2.7;
        c.avg_degree = 8.0;
        configs.push_back(c);
    }
    for (auto config : configs) {
        config.threads = 1;
        gen::BuildStats reference_stats;
        const Graph reference = gen::generate_graph(config, &reference_stats);
        for (const std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                                          std::size_t{7}, std::size_t{0}}) {
            config.threads = threads;
            gen::BuildStats stats;
            EXPECT_EQ(gen::generate_graph(config, &stats), reference)
                << gen::family_name(config.family) << " n=" << config.n
                << " threads=" << threads;
            EXPECT_EQ(stats.edges_emitted, reference_stats.edges_emitted)
                << gen::family_name(config.family) << " threads=" << threads;
            EXPECT_EQ(stats.unique_edges, reference_stats.unique_edges)
                << gen::family_name(config.family) << " threads=" << threads;
        }
    }
}

TEST(GenDeterminism, DealingVisitsEveryIndexOnceInAscendingOrder) {
    for (const std::size_t count : {0, 1, 63, 64, 65, 1000}) {
        for (const std::size_t workers : {1, 3, 4, 7}) {
            for (const std::size_t block : {1, 64}) {
                std::vector<int> visits(count, 0);
                for (std::size_t w = 0; w < workers; ++w) {
                    std::size_t last = 0;
                    bool first = true;
                    gen::for_each_dealt(count, workers, w, block, [&](std::size_t i) {
                        EXPECT_TRUE(first || i > last);
                        EXPECT_EQ(i / block % workers, w);
                        first = false;
                        last = i;
                        ++visits[i];
                    });
                }
                for (std::size_t i = 0; i < count; ++i) {
                    EXPECT_EQ(visits[i], 1) << "count=" << count << " workers=" << workers
                                            << " block=" << block << " i=" << i;
                }
            }
        }
    }
}

TEST(GenDeterminism, ShardUnionEqualsUnshardedRun) {
    for (auto config : representative_configs()) {
        const Graph full = gen::generate_graph(config);
        for (const std::size_t shards : {std::size_t{2}, std::size_t{3}}) {
            g::GraphBuilder builder(config.n);
            for (std::size_t i = 0; i < shards; ++i) {
                config.shard = {i, shards};
                for (const auto& e : gen::generate_graph(config).edges()) {
                    builder.add_edge(e.u, e.v);
                }
            }
            config.shard = {};
            EXPECT_EQ(builder.build(), full)
                << gen::family_name(config.family) << " shards=" << shards;
        }
    }
}

TEST(GenDeterminism, RerunIsByteIdentical) {
    auto config = base_config(gen::Family::Hyperbolic, 700);
    config.avg_degree = 10.0;
    EXPECT_EQ(gen::generate_graph(config), gen::generate_graph(config));
    config.seed = 18;  // and a different seed differs
    const Graph other = gen::generate_graph(config);
    config.seed = 17;
    EXPECT_NE(gen::generate_graph(config), other);
}

// ------------------------------------------------- facade/legacy equivalence

TEST(GenFacade, CompleteAndStarMatchLegacyGenerators) {
    EXPECT_EQ(gen::generate_graph(base_config(gen::Family::Complete, 40)),
              g::make_complete(40));
    EXPECT_EQ(gen::generate_graph(base_config(gen::Family::Star, 40)),
              g::make_star(40));
}

TEST(GenFacade, DRegularErasedModelIsNearRegular) {
    // The streaming dregular family is an *erased* configuration model
    // (self-loops dropped, duplicate pairs collapse), so realized degrees
    // are <= d with an O(d²/n) erasure deficit — not exactly d.
    auto config = base_config(gen::Family::DRegular, 200);
    config.degree = 6;
    const Graph graph = gen::generate_graph(config);
    std::size_t degree_sum = 0;
    for (Vertex v = 0; v < graph.vertex_count(); ++v) {
        EXPECT_LE(graph.degree(v), 6u);
        degree_sum += graph.degree(v);
    }
    // Expected erasure loss per stub is O(d/n); demand at least 90% of the
    // stubs survive (far looser than the ~3% expected loss at n=200, d=6).
    EXPECT_GE(degree_sum, static_cast<std::size_t>(200 * 6 * 9 / 10));
}

TEST(GenFacade, DRegularStubPermutationIsABijection) {
    // The pairing σ(2k) ↔ σ(2k+1) covers every stub exactly once iff the
    // cycle-walked Feistel σ is a permutation of [0, n·d).
    auto config = base_config(gen::Family::DRegular, 100);
    config.degree = 8;
    config.validate();
    const gen::DRegularGen generator(config);
    const std::uint64_t stubs = 100 * 8;
    std::vector<bool> seen(stubs, false);
    for (std::uint64_t i = 0; i < stubs; ++i) {
        const std::uint64_t image = generator.permuted_stub(i);
        ASSERT_LT(image, stubs);
        EXPECT_FALSE(seen[image]) << "stub " << image << " hit twice";
        seen[image] = true;
    }
}

TEST(GenFacade, DOutDegreesAtLeastD) {
    auto config = base_config(gen::Family::DOut, 500);
    config.degree = 7;
    const Graph graph = gen::generate_graph(config);
    for (Vertex v = 0; v < graph.vertex_count(); ++v) {
        EXPECT_GE(graph.degree(v), 7u);
    }
}

// --------------------------------------------------------- family sanity

TEST(GenFamilies, GnpEdgeCountNearExpectation) {
    auto config = base_config(gen::Family::Gnp, 5000);
    config.p = 0.002;
    const Graph graph = gen::generate_graph(config);
    const double expected = 0.002 * 5000.0 * 4999.0 / 2.0;  // ~25k
    EXPECT_NEAR(static_cast<double>(graph.edge_count()), expected, 0.1 * expected);
}

TEST(GenFamilies, WattsStrogatzEdgeCountNearLattice) {
    auto config = base_config(gen::Family::WattsStrogatz, 2000);
    config.degree = 8;
    config.beta = 0.1;
    const Graph graph = gen::generate_graph(config);
    // n*k/2 lattice edges minus the few rewiring collisions.
    EXPECT_NEAR(static_cast<double>(graph.edge_count()), 2000.0 * 8 / 2, 200.0);
}

TEST(GenFamilies, BarabasiAlbertGrowsHubs) {
    auto config = base_config(gen::Family::BarabasiAlbert, 20000);
    config.degree = 4;
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    EXPECT_NEAR(stats.mean, 8.0, 1.0);         // ~2m per vertex
    EXPECT_GT(stats.max, 10 * stats.mean);     // heavy tail
}

/// Least-squares slope of log ccdf vs log degree over [lo, hi] — the
/// empirical tail exponent is -(slope) - ... for ccdf ~ d^-(tau-1) the
/// fitted slope estimates -(tau - 1).
double ccdf_slope(const Graph& graph, std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> degrees(graph.vertex_count());
    for (Vertex v = 0; v < graph.vertex_count(); ++v) degrees[v] = graph.degree(v);
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    std::size_t points = 0;
    for (std::size_t d = lo; d <= hi; d *= 2) {
        const auto count = static_cast<double>(
            std::count_if(degrees.begin(), degrees.end(),
                          [d](std::size_t deg) { return deg >= d; }));
        if (count <= 0) break;
        const double x = std::log(static_cast<double>(d));
        const double y = std::log(count / static_cast<double>(degrees.size()));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        ++points;
    }
    EXPECT_GE(points, 3u) << "degenerate tail: not enough ccdf points";
    const double p = static_cast<double>(points);
    return (p * sxy - sx * sy) / (p * sxx - sx * sx);
}

TEST(GenFamilies, ChungLuPowerLawTail) {
    auto config = base_config(gen::Family::ChungLu, 100000);
    config.gamma = 2.5;
    config.avg_degree = 10.0;
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    EXPECT_NEAR(stats.mean, 10.0, 1.5);
    // ccdf ~ d^-(gamma-1): slope -(1.5) within a generous sampling tolerance.
    EXPECT_NEAR(ccdf_slope(graph, 16, 256), -1.5, 0.5);
}

TEST(GenFamilies, ChungLuMaxWeightCapBoundsDegrees) {
    auto config = base_config(gen::Family::ChungLu, 50000);
    config.gamma = 2.5;
    config.avg_degree = 8.0;
    config.max_weight = 25.0;  // expected degree of every vertex <= 25
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    // Poisson(25) tail: exceeding 60 anywhere would be a ~6-sigma event.
    EXPECT_LE(stats.max, 60u);
}

TEST(GenFamilies, HyperbolicPowerLawTailAndMeanDegree) {
    auto config = base_config(gen::Family::Hyperbolic, 100000);
    config.gamma = 2.5;
    config.avg_degree = 10.0;
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    EXPECT_NEAR(stats.mean, 10.0, 2.0);
    EXPECT_NEAR(ccdf_slope(graph, 16, 256), -1.5, 0.5);
}

TEST(GenFamilies, RmatIsSkewed) {
    auto config = base_config(gen::Family::Rmat, 16384);
    config.edges = 100000;
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    EXPECT_GT(stats.max, 20 * stats.mean);  // 0.57 corner concentrates mass
    EXPECT_LE(graph.edge_count(), 100000u);  // draws minus loops/duplicates
}

// ------------------------------------------------------------ memory budget

TEST(GenBudget, EstimatePreCheckRejectsQuadraticFamilies) {
    auto config = base_config(gen::Family::Complete, 100000);
    config.memory_budget_bytes = 64 << 20;
    EXPECT_THROW(gen::generate_graph(config), ContractViolation);
}

TEST(GenBudget, GenerousBudgetPasses) {
    auto config = base_config(gen::Family::Gnp, 2000);
    config.p = 0.005;
    config.memory_budget_bytes = 256 << 20;
    EXPECT_EQ(gen::generate_graph(config).vertex_count(), 2000u);
}

// ----------------------------------------------------------- config errors

TEST(GenConfig, ValidateRejectsBadParameters) {
    EXPECT_THROW(gen::generate_graph(base_config(gen::Family::Gnp, 0)),
                 ContractViolation);  // n == 0
    {
        auto c = base_config(gen::Family::Gnp, 10);
        c.p = 1.5;
        EXPECT_THROW(gen::generate_graph(c), ContractViolation);
    }
    {
        auto c = base_config(gen::Family::DRegular, 5);
        c.degree = 3;  // n*d odd
        EXPECT_THROW(gen::generate_graph(c), ContractViolation);
    }
    {
        auto c = base_config(gen::Family::ChungLu, 10);
        c.gamma = 2.0;  // needs > 2
        EXPECT_THROW(gen::generate_graph(c), ContractViolation);
    }
    {
        auto c = base_config(gen::Family::Gnp, 10);
        c.p = 0.5;
        c.shard = {3, 3};  // index must be < count
        EXPECT_THROW(gen::generate_graph(c), ContractViolation);
    }
}

// ------------------------------------------------------------- spec parsing

TEST(GenSpecs, ParsesFacadeHeads) {
    EXPECT_TRUE(ld::cli::is_generator_spec("cl:2.5,8"));
    EXPECT_TRUE(ld::cli::is_generator_spec("hyper:2.7,12"));
    EXPECT_TRUE(ld::cli::is_generator_spec("girg:2.7,12,50"));
    EXPECT_TRUE(ld::cli::is_generator_spec("rmat:1000"));
    EXPECT_TRUE(ld::cli::is_generator_spec("gen:gnp:0.01"));
    EXPECT_FALSE(ld::cli::is_generator_spec("er:0.01"));
    EXPECT_FALSE(ld::cli::is_generator_spec("complete"));

    const auto cl = ld::cli::parse_generator_spec("cl:2.5,8", 1000, 5);
    EXPECT_EQ(cl.family, gen::Family::ChungLu);
    EXPECT_EQ(cl.n, 1000u);
    EXPECT_EQ(cl.seed, 5u);
    EXPECT_DOUBLE_EQ(cl.gamma, 2.5);
    EXPECT_DOUBLE_EQ(cl.avg_degree, 8.0);

    const auto girg = ld::cli::parse_generator_spec("girg:2.7,12,50", 1000, 5);
    EXPECT_EQ(girg.family, gen::Family::Hyperbolic);
    EXPECT_DOUBLE_EQ(girg.max_weight, 50.0);

    const auto rmat = ld::cli::parse_generator_spec("rmat:5000,0.5,0.2,0.2", 256, 5);
    EXPECT_EQ(rmat.family, gen::Family::Rmat);
    EXPECT_EQ(rmat.edges, 5000u);
    EXPECT_DOUBLE_EQ(rmat.rmat_a, 0.5);

    // gen:er is accepted as an alias for gnp.
    EXPECT_EQ(ld::cli::parse_generator_spec("gen:er:0.01", 100, 1).family,
              gen::Family::Gnp);
}

TEST(GenSpecs, RejectsMalformedSpecs) {
    EXPECT_THROW(ld::cli::parse_generator_spec("gen:nosuch:1", 100, 1),
                 ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_generator_spec("cl:2.5", 100, 1), ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_generator_spec("rmat:10,0.5", 100, 1),
                 ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_generator_spec("gen:complete:3", 100, 1),
                 ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_generator_spec("gen:ws:junk,0.1", 100, 1),
                 ld::cli::SpecError);
}

TEST(GenSpecs, MakeGraphRoutesThroughFacade) {
    ld::rng::Rng rng(3);
    const Graph graph = ld::cli::make_graph("gen:complete", 30, rng);
    EXPECT_EQ(graph, g::make_complete(30));
    ld::rng::Rng rng2(3);
    const Graph cl = ld::cli::make_graph("cl:2.5,6", 500, rng2);
    EXPECT_EQ(cl.vertex_count(), 500u);
    EXPECT_GT(cl.edge_count(), 0u);
}

// ------------------------------------------------------------ plumbing bits

TEST(GenPlumbing, ChunkBufferCanonicalisesAndFlushes) {
    gen::CollectSink sink;
    gen::ChunkBuffer buffer(sink, 3);
    buffer.emit(5, 2);   // reorders to (2,5)
    buffer.emit(4, 4);   // self-loop dropped
    buffer.emit(1, 9);
    buffer.emit(0, 3);   // third edge triggers the capacity flush
    buffer.flush();      // no-op: buffer drained
    EXPECT_EQ(buffer.edges_emitted(), 3u);
    EXPECT_EQ(buffer.chunks_flushed(), 1u);
    ASSERT_EQ(sink.edges().size(), 3u);
    EXPECT_EQ(sink.edges()[0], (ld::graph::Edge{2, 5}));
}

/// Per-vertex adjacency rows of `graph`, and back to CSR arrays.
using Rows = std::vector<std::vector<Vertex>>;

Rows rows_of(const Graph& graph) {
    Rows rows;
    for (Vertex v = 0; v < graph.vertex_count(); ++v) {
        const auto nbrs = graph.neighbours(v);
        rows.emplace_back(nbrs.begin(), nbrs.end());
    }
    return rows;
}

Graph from_rows(const Rows& rows) {
    std::vector<std::size_t> offsets{0};
    std::vector<Vertex> neighbours;
    for (const auto& row : rows) {
        neighbours.insert(neighbours.end(), row.begin(), row.end());
        offsets.push_back(neighbours.size());
    }
    return Graph::from_csr(std::move(offsets), std::move(neighbours));
}

/// Expects `build` to throw the symmetry check's ContractViolation, not
/// an earlier check's.
template <typename Build>
void expect_refused_as_asymmetric(Build build) {
    try {
        build();
        ADD_FAILURE() << "asymmetric CSR accepted";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("adjacency must be symmetric"),
                  std::string::npos)
            << e.what();
    }
}

TEST(GenPlumbing, FromCsrRejectsBrokenInvariants) {
    // Asymmetric: 0->1 without 1->0 (odd half-edge count, refused early).
    EXPECT_THROW(Graph::from_csr({0, 1, 1}, {1}), ContractViolation);
    // Self-loop.
    EXPECT_THROW(Graph::from_csr({0, 1, 2}, {0, 1}), ContractViolation);
    // Valid single edge.
    const Graph ok = Graph::from_csr({0, 1, 2}, {1, 0});
    EXPECT_EQ(ok.edge_count(), 1u);
    EXPECT_TRUE(ok.has_edge(0, 1));
}

TEST(GenPlumbing, FromCsrRejectsAsymmetryThatPassesEveryEarlierCheck) {
    // Even, in range, loop-free and ascending, but 2->3 and 3->1 have no
    // mirror.
    expect_refused_as_asymmetric([] { Graph::from_csr({0, 1, 2, 3, 4}, {1, 0, 3, 1}); });
    // 0->1 and 1->2 only: a directed path.
    expect_refused_as_asymmetric([] { Graph::from_csr({0, 1, 2, 2}, {1, 2}); });
    // Most half-edges are mirrored (0-1, 1-3), 0->2 and 4->3 are not.
    expect_refused_as_asymmetric(
        [] { Graph::from_csr({0, 2, 4, 4, 5, 6}, {1, 2, 0, 3, 1, 3}); });
    // The symmetric counterparts are accepted.
    EXPECT_EQ(Graph::from_csr({0, 1, 2, 3, 4}, {1, 0, 3, 2}).edge_count(), 2u);
    EXPECT_EQ(Graph::from_csr({0, 1, 3, 4}, {1, 0, 2, 1}).edge_count(), 2u);
}

TEST(GenPlumbing, FromCsrSymmetryMatchesBruteForceOnRandomSmallCsrs) {
    // Random loop-free ascending rows with an even half-edge count, so only
    // the symmetry check can refuse them; a quarter start from a symmetric
    // graph so both outcomes are common.
    ld::rng::Rng rng(23);
    std::size_t symmetric = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const std::size_t n = 2 + rng.next_below(5);
        std::vector<std::vector<bool>> adjacent(n, std::vector<bool>(n, false));
        const bool mirror = rng.next_below(4) == 0;
        for (std::size_t v = 0; v < n; ++v) {
            for (std::size_t u = mirror ? v + 1 : 0; u < n; ++u) {
                if (u == v || rng.next_below(2) == 0) continue;
                adjacent[v][u] = true;
                if (mirror) adjacent[u][v] = true;
            }
        }
        Rows rows(n);
        std::size_t half_edges = 0;
        for (std::size_t v = 0; v < n; ++v) {
            for (std::size_t u = 0; u < n; ++u) {
                if (adjacent[v][u]) rows[v].push_back(static_cast<Vertex>(u));
            }
            half_edges += rows[v].size();
        }
        if (half_edges % 2 != 0) continue;
        bool is_symmetric = true;
        for (std::size_t v = 0; v < n; ++v) {
            for (std::size_t u = 0; u < n; ++u) {
                is_symmetric = is_symmetric && adjacent[v][u] == adjacent[u][v];
            }
        }
        SCOPED_TRACE("trial " + std::to_string(trial));
        if (is_symmetric) {
            ++symmetric;
            EXPECT_EQ(from_rows(rows).edge_count(), half_edges / 2);
        } else {
            expect_refused_as_asymmetric([&] { from_rows(rows); });
        }
    }
    EXPECT_GT(symmetric, 500u);
}

TEST(GenPlumbing, FromCsrRoundTripsEveryFamilyAndRefusesOneChangedEntry) {
    for (const auto& config : representative_configs()) {
        SCOPED_TRACE(config.describe());
        const Graph graph = gen::generate_graph(config);
        ASSERT_GT(graph.edge_count(), 0u);
        Rows rows = rows_of(graph);
        EXPECT_EQ(from_rows(rows), graph);

        // Bump one entry to the next free value: the row stays ascending,
        // deduplicated and loop-free, but (v, u) and (v, u + 1) lose their
        // mirrors.  K_n's rows are full, so for it drop the half-edges
        // 0->1 and 2->0 instead (1->0 and 0->2 are left unmirrored).
        bool changed = false;
        for (std::size_t v = 0; v < rows.size() && !changed; ++v) {
            auto& row = rows[v];
            for (std::size_t i = 0; i < row.size() && !changed; ++i) {
                const std::size_t bumped = std::size_t{row[i]} + 1;
                const std::size_t next = i + 1 < row.size() ? row[i + 1] : rows.size();
                if (bumped < next && bumped != v) {
                    row[i] = static_cast<Vertex>(bumped);
                    changed = true;
                }
            }
        }
        if (config.family == gen::Family::Complete) {
            ASSERT_FALSE(changed);
            rows[0].erase(rows[0].begin());  // 0->1
            rows[2].erase(rows[2].begin());  // 2->0
            changed = true;
        }
        ASSERT_TRUE(changed);
        expect_refused_as_asymmetric([&] { from_rows(rows); });
    }
}

TEST(GenPlumbing, MetricsAreRecorded) {
    auto& registry = ld::support::MetricsRegistry::global();
    const auto before = registry.snapshot();
    auto config = base_config(gen::Family::Gnp, 1000);
    config.p = 0.01;
    gen::BuildStats stats;
    const Graph graph = gen::generate_graph(config, &stats);
    const auto after = registry.snapshot().since(before);
    EXPECT_EQ(after.counter_value("gen.edges_emitted"), stats.edges_emitted);
    EXPECT_GE(after.counter_value("gen.chunks"), 1u);
    EXPECT_GT(after.gauge_value("gen.csr_peak_bytes"), 0);
    const auto* histogram = after.find_histogram("gen.gnp.generate_seconds");
    ASSERT_NE(histogram, nullptr);
    EXPECT_GE(histogram->count, 1u);
    EXPECT_EQ(stats.unique_edges, graph.edge_count());
}

TEST(GenPlumbing, BuildStatsCountScatterPassOnce) {
    auto config = base_config(gen::Family::Complete, 50);
    gen::BuildStats stats;
    const Graph graph = gen::generate_graph(config, &stats);
    EXPECT_EQ(stats.edges_emitted, graph.edge_count());  // complete: no dups
    EXPECT_EQ(stats.unique_edges, graph.edge_count());
}

}  // namespace
