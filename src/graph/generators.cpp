#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "rng/sampling.hpp"
#include "support/expect.hpp"

namespace ld::graph {

using support::expects;

namespace {

/// Vertex ids are 32-bit; a size that cannot index them would silently
/// wrap in the id arithmetic below.
void check_vertex_range(std::size_t n, const std::string& context) {
    expects(n <= static_cast<std::size_t>(std::numeric_limits<Vertex>::max()) + 1,
            context + ": size exceeds the 32-bit vertex id range");
}

}  // namespace

Graph make_complete(std::size_t n) {
    // n <= 2^32 keeps every id a Vertex and n*(n-1) within 64 bits; the
    // check runs before anything is allocated.
    check_vertex_range(n, "make_complete");
    // Fill the CSR directly: row v is every u != v, ascending, at offset
    // v*(n-1).  No edge list, no sort.  The neighbour array is allocated
    // first, so a size it cannot hold fails before the offsets exist.
    const std::size_t degree = n == 0 ? 0 : n - 1;
    std::vector<Vertex> neighbours(n * degree);
    std::vector<std::size_t> offsets(n + 1);
    for (std::size_t v = 0; v <= n; ++v) offsets[v] = v * degree;
    for (std::size_t v = 0; v < n; ++v) {
        Vertex* row = neighbours.data() + offsets[v];
        std::iota(row, row + v, Vertex{0});
        std::iota(row + v, row + degree, static_cast<Vertex>(v + 1));
    }
    return Graph::from_csr(std::move(offsets), std::move(neighbours));
}

Graph make_star(std::size_t n) {
    expects(n >= 1, "make_star: need at least one vertex");
    GraphBuilder b(n);
    for (Vertex v = 1; v < n; ++v) b.add_edge(0, v);
    return b.build();
}

Graph make_path(std::size_t n) {
    GraphBuilder b(n);
    for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
    return b.build();
}

Graph make_cycle(std::size_t n) {
    expects(n >= 3, "make_cycle: need at least 3 vertices");
    GraphBuilder b(n);
    for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
    b.add_edge(static_cast<Vertex>(n - 1), 0);
    return b.build();
}

Graph make_grid(std::size_t rows, std::size_t cols) {
    expects(rows >= 1 && cols >= 1, "make_grid: rows and cols must be >= 1");
    expects(rows <= std::numeric_limits<std::size_t>::max() / cols,
            "make_grid: rows * cols overflows");
    check_vertex_range(rows * cols, "make_grid");
    GraphBuilder b(rows * cols);
    const auto id = [cols](std::size_t r, std::size_t c) {
        return static_cast<Vertex>(r * cols + c);
    };
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
            if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
        }
    }
    return b.build();
}

Graph make_erdos_renyi_gnp(rng::Rng& rng, std::size_t n, double p) {
    expects(p >= 0.0 && p <= 1.0, "make_erdos_renyi_gnp: p out of [0,1]");
    GraphBuilder b(n);
    if (p == 0.0 || n < 2) return b.build();
    if (p == 1.0) return make_complete(n);
    // Geometric skipping (Batagelj–Brandes): expected O(n + m).
    const double log1mp = std::log1p(-p);
    std::size_t v = 1;
    std::ptrdiff_t w = -1;
    while (v < n) {
        const double r = rng.next_double();
        w += 1 + static_cast<std::ptrdiff_t>(std::floor(std::log1p(-r) / log1mp));
        while (w >= static_cast<std::ptrdiff_t>(v) && v < n) {
            w -= static_cast<std::ptrdiff_t>(v);
            ++v;
        }
        if (v < n) b.add_edge(static_cast<Vertex>(v), static_cast<Vertex>(w));
    }
    return b.build();
}

Graph make_erdos_renyi_gnm(rng::Rng& rng, std::size_t n, std::size_t m) {
    check_vertex_range(n, "make_erdos_renyi_gnm");  // n*(n-1) then fits 64 bits
    const std::size_t max_edges = n == 0 ? 0 : n * (n - 1) / 2;
    expects(m <= max_edges, "make_erdos_renyi_gnm: too many edges requested");
    GraphBuilder b(n);
    std::set<Edge> chosen;
    while (chosen.size() < m) {
        const auto u = static_cast<Vertex>(rng.next_below(n));
        const auto v = static_cast<Vertex>(rng.next_below(n));
        if (u == v) continue;
        const Edge e = u < v ? Edge{u, v} : Edge{v, u};
        if (chosen.insert(e).second) b.add_edge(e.u, e.v);
    }
    return b.build();
}

namespace {

/// One configuration-model attempt: pair half-edges, return the (possibly
/// non-simple) multiset of pairings as vertex pairs.
std::vector<std::pair<Vertex, Vertex>> pair_half_edges(rng::Rng& rng, std::size_t n,
                                                       std::size_t d) {
    std::vector<Vertex> stubs(n * d);
    std::size_t k = 0;
    for (Vertex v = 0; v < n; ++v) {
        for (std::size_t i = 0; i < d; ++i) stubs[k++] = v;
    }
    rng::shuffle(rng, stubs);
    std::vector<std::pair<Vertex, Vertex>> pairs;
    pairs.reserve(stubs.size() / 2);
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
        pairs.emplace_back(stubs[i], stubs[i + 1]);
    }
    return pairs;
}

}  // namespace

Graph make_random_d_regular(rng::Rng& rng, std::size_t n, std::size_t d) {
    expects(d < n, "make_random_d_regular: d must be < n");
    check_vertex_range(n, "make_random_d_regular");
    expects(d == 0 || n <= std::numeric_limits<std::size_t>::max() / d,
            "make_random_d_regular: n * d overflows");
    expects((n * d) % 2 == 0, "make_random_d_regular: n*d must be even");
    if (d == 0) return Graph::empty(n);

    // Configuration model with local edge-swap repair: defective pairings
    // (self-loops or duplicates) are re-wired by swapping with a random
    // accepted edge.  For d = o(sqrt(n)) this terminates quickly and the
    // conditioned distribution is asymptotically uniform over simple
    // d-regular graphs — the regime all paper experiments use.
    constexpr int kMaxRestarts = 64;
    for (int attempt = 0; attempt < kMaxRestarts; ++attempt) {
        auto pairs = pair_half_edges(rng, n, d);
        std::set<Edge> accepted;
        std::vector<std::pair<Vertex, Vertex>> defective;
        const auto canon = [](Vertex a, Vertex b) {
            return a < b ? Edge{a, b} : Edge{b, a};
        };
        for (const auto& [a, bv] : pairs) {
            if (a == bv || accepted.contains(canon(a, bv))) {
                defective.emplace_back(a, bv);
            } else {
                accepted.insert(canon(a, bv));
            }
        }
        std::vector<Edge> pool(accepted.begin(), accepted.end());
        bool failed = false;
        std::size_t stall = 0;
        const std::size_t stall_limit = 200 * (defective.size() + 1);
        while (!defective.empty()) {
            if (++stall > stall_limit || pool.empty()) {
                failed = true;
                break;
            }
            auto [a, bv] = defective.back();
            // Swap with a random accepted edge (x, y):
            //   (a, b), (x, y)  →  (a, x), (b, y)
            const std::size_t idx = rng::uniform_index(rng, pool.size());
            const Edge exy = pool[idx];
            const Vertex x = exy.u, y = exy.v;
            const Edge e1 = canon(a, x);
            const Edge e2 = canon(bv, y);
            if (a == x || bv == y || accepted.contains(e1) || accepted.contains(e2) ||
                e1 == e2) {
                continue;  // try another partner edge
            }
            defective.pop_back();
            accepted.erase(exy);
            pool[idx] = pool.back();
            pool.pop_back();
            accepted.insert(e1);
            accepted.insert(e2);
            pool.push_back(e1);
            pool.push_back(e2);
            stall = 0;
        }
        if (failed) continue;
        GraphBuilder b(n);
        for (const Edge& e : accepted) b.add_edge(e.u, e.v);
        Graph g = b.build();
        // Verify regularity (the repair preserves the degree sequence, but
        // keep the check as a cheap postcondition).
        bool regular = true;
        for (Vertex v = 0; v < n; ++v) {
            if (g.degree(v) != d) {
                regular = false;
                break;
            }
        }
        if (regular) return g;
    }
    throw std::runtime_error("make_random_d_regular: failed to produce a simple graph");
}

Graph make_d_out(rng::Rng& rng, std::size_t n, std::size_t d) {
    expects(d < n, "make_d_out: d must be < n");
    GraphBuilder b(n);
    for (Vertex v = 0; v < n; ++v) {
        for (std::size_t t : rng::sample_without_replacement(rng, n - 1, d)) {
            // Map {0..n-2} onto {0..n-1} \ {v}.
            const auto u = static_cast<Vertex>(t < v ? t : t + 1);
            b.add_edge(v, u);
        }
    }
    return b.build();
}

Graph make_bounded_degree(rng::Rng& rng, std::size_t n, std::size_t max_deg,
                          std::size_t target_edges) {
    expects(max_deg >= 1, "make_bounded_degree: max_deg must be >= 1");
    check_vertex_range(n, "make_bounded_degree");
    // 128-bit compare: either product can overflow 64 bits on its own.
    expects(static_cast<unsigned __int128>(target_edges) * 2 <=
                static_cast<unsigned __int128>(n) * max_deg,
            "make_bounded_degree: target infeasible");
    GraphBuilder b(n);
    std::vector<std::size_t> deg(n, 0);
    std::set<Edge> chosen;
    std::size_t placed = 0;
    const std::size_t proposal_budget = 50 * (target_edges + n) + 1000;
    for (std::size_t tries = 0; placed < target_edges && tries < proposal_budget; ++tries) {
        const auto u = static_cast<Vertex>(rng.next_below(n));
        const auto v = static_cast<Vertex>(rng.next_below(n));
        if (u == v || deg[u] >= max_deg || deg[v] >= max_deg) continue;
        const Edge e = u < v ? Edge{u, v} : Edge{v, u};
        if (!chosen.insert(e).second) continue;
        b.add_edge(e.u, e.v);
        ++deg[u];
        ++deg[v];
        ++placed;
    }
    return b.build();
}

Graph make_min_degree_at_least(rng::Rng& rng, std::size_t n, std::size_t min_deg) {
    expects(min_deg < n, "make_min_degree_at_least: min_deg must be < n");
    expects(n >= 3, "make_min_degree_at_least: need at least 3 vertices");
    GraphBuilder b(n);
    // Random Hamiltonian cycle for a connected degree-2 base.
    std::vector<Vertex> perm(n);
    for (Vertex v = 0; v < n; ++v) perm[v] = v;
    rng::shuffle(rng, perm);
    std::set<Edge> chosen;
    std::vector<std::size_t> deg(n, 0);
    const auto add = [&](Vertex u, Vertex v) {
        const Edge e = u < v ? Edge{u, v} : Edge{v, u};
        if (chosen.insert(e).second) {
            b.add_edge(e.u, e.v);
            ++deg[u];
            ++deg[v];
            return true;
        }
        return false;
    };
    for (std::size_t i = 0; i < n; ++i) add(perm[i], perm[(i + 1) % n]);
    // Raise deficient vertices to the floor by attaching random partners.
    for (Vertex v = 0; v < n; ++v) {
        std::size_t guard = 0;
        while (deg[v] < min_deg && guard < 100 * n) {
            const auto u = static_cast<Vertex>(rng.next_below(n));
            ++guard;
            if (u == v) continue;
            add(v, u);
        }
        expects(deg[v] >= min_deg, "make_min_degree_at_least: could not satisfy floor");
    }
    return b.build();
}

Graph make_barabasi_albert(rng::Rng& rng, std::size_t n, std::size_t m) {
    expects(m >= 1 && n > m, "make_barabasi_albert: need n > m >= 1");
    check_vertex_range(n, "make_barabasi_albert");
    expects(n <= std::numeric_limits<std::size_t>::max() / (2 * m),
            "make_barabasi_albert: 2 * n * m overflows");
    GraphBuilder b(n);
    // `targets` holds each vertex once per incident edge, so a uniform draw
    // from it is a degree-proportional draw.
    std::vector<Vertex> targets;
    targets.reserve(2 * n * m);
    for (Vertex u = 0; u <= m; ++u) {
        for (Vertex v = u + 1; v <= m; ++v) {
            b.add_edge(u, v);
            targets.push_back(u);
            targets.push_back(v);
        }
    }
    for (Vertex newcomer = static_cast<Vertex>(m + 1); newcomer < n; ++newcomer) {
        std::unordered_set<Vertex> picked;
        std::size_t guard = 0;
        while (picked.size() < m && guard < 1000 * m) {
            ++guard;
            const Vertex t = targets[rng::uniform_index(rng, targets.size())];
            picked.insert(t);
        }
        for (Vertex t : picked) {
            b.add_edge(newcomer, t);
            targets.push_back(newcomer);
            targets.push_back(t);
        }
    }
    return b.build();
}

Graph make_watts_strogatz(rng::Rng& rng, std::size_t n, std::size_t k, double beta) {
    expects(k % 2 == 0, "make_watts_strogatz: k must be even");
    expects(k < n, "make_watts_strogatz: k must be < n");
    expects(beta >= 0.0 && beta <= 1.0, "make_watts_strogatz: beta out of [0,1]");
    std::set<Edge> chosen;
    const auto canon = [](Vertex a, Vertex b) { return a < b ? Edge{a, b} : Edge{b, a}; };
    for (Vertex v = 0; v < n; ++v) {
        for (std::size_t j = 1; j <= k / 2; ++j) {
            chosen.insert(canon(v, static_cast<Vertex>((v + j) % n)));
        }
    }
    // Rewire each lattice edge's far endpoint w.p. beta.
    std::vector<Edge> lattice(chosen.begin(), chosen.end());
    for (const Edge& e : lattice) {
        if (!rng.next_bernoulli(beta)) continue;
        std::size_t guard = 0;
        while (guard++ < 100) {
            const auto w = static_cast<Vertex>(rng.next_below(n));
            if (w == e.u || w == e.v) continue;
            const Edge candidate = canon(e.u, w);
            if (chosen.contains(candidate)) continue;
            chosen.erase(e);
            chosen.insert(candidate);
            break;
        }
    }
    GraphBuilder b(n);
    for (const Edge& e : chosen) b.add_edge(e.u, e.v);
    return b.build();
}

Graph make_two_tier(rng::Rng& rng, std::size_t n, std::size_t hub_count,
                    std::size_t spokes_per_leaf) {
    expects(hub_count >= 1 && hub_count <= n, "make_two_tier: bad hub_count");
    expects(spokes_per_leaf >= 1 && spokes_per_leaf <= hub_count,
            "make_two_tier: bad spokes_per_leaf");
    GraphBuilder b(n);
    for (Vertex u = 0; u < hub_count; ++u) {
        for (Vertex v = u + 1; v < hub_count; ++v) b.add_edge(u, v);
    }
    for (Vertex leaf = static_cast<Vertex>(hub_count); leaf < n; ++leaf) {
        for (std::size_t h : rng::sample_without_replacement(rng, hub_count, spokes_per_leaf)) {
            b.add_edge(leaf, static_cast<Vertex>(h));
        }
    }
    return b.build();
}

}  // namespace ld::graph
