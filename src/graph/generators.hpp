// Generators for every graph family the paper analyses or names:
//
//  * complete graphs `K_n` (§4.1),
//  * star graphs (Figure 1 counterexample),
//  * random d-regular graphs `Rand(n, d)` (§4.2) — configuration model with
//    edge-swap repair, plus the "d-out" sampling view Algorithm 2 uses,
//  * bounded-degree / bounded-minimum-degree random graphs (§5),
//  * Erdős–Rényi, Barabási–Albert (§6 "real-world networks"), Watts–Strogatz,
//    paths/cycles/grids for tests,
//  * deliberately asymmetric "two-tier" graphs used to stress the variance
//    conditions.

#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace ld::graph {

/// Complete graph on n vertices (n <= 2^32), its CSR filled directly.
Graph make_complete(std::size_t n);

/// Star: vertex 0 is the centre, vertices 1..n-1 are leaves.  n >= 1.
Graph make_star(std::size_t n);

/// Simple path 0-1-…-(n-1).
Graph make_path(std::size_t n);

/// Cycle 0-1-…-(n-1)-0.  n >= 3.
Graph make_cycle(std::size_t n);

/// rows × cols 4-neighbour grid.
Graph make_grid(std::size_t rows, std::size_t cols);

/// Erdős–Rényi G(n, p): each possible edge present independently w.p. p.
Graph make_erdos_renyi_gnp(rng::Rng& rng, std::size_t n, double p);

/// Erdős–Rényi G(n, m): m distinct edges uniform over all edge sets.
Graph make_erdos_renyi_gnm(rng::Rng& rng, std::size_t n, std::size_t m);

/// Random d-regular simple graph via the configuration model.  Pairs up
/// n*d half-edges uniformly, then repairs self-loops / multi-edges by
/// random edge swaps (uniformly random conditioned on simplicity for the
/// asymptotic regime we simulate).  Requires n*d even and d < n.
Graph make_random_d_regular(rng::Rng& rng, std::size_t n, std::size_t d);

/// The "d-out" random graph of Algorithm 2: each vertex samples d uniform
/// distinct targets; the union of the sampled (undirected) edges.  Vertex
/// degrees concentrate around 2d.  Requires d < n.
Graph make_d_out(rng::Rng& rng, std::size_t n, std::size_t d);

/// Random graph with maximum degree at most `max_deg`: repeatedly proposes
/// uniform random edges and keeps those not violating the cap, until
/// `target_edges` are placed or proposals are exhausted.
Graph make_bounded_degree(rng::Rng& rng, std::size_t n, std::size_t max_deg,
                          std::size_t target_edges);

/// Random graph with minimum degree at least `min_deg`: starts from a
/// random Hamiltonian cycle (guaranteeing connectivity), then adds uniform
/// random edges until every vertex has degree >= min_deg.
Graph make_min_degree_at_least(rng::Rng& rng, std::size_t n, std::size_t min_deg);

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m + 1` vertices; each newcomer attaches to `m` existing vertices chosen
/// proportionally to degree.  Requires n > m >= 1.
Graph make_barabasi_albert(rng::Rng& rng, std::size_t n, std::size_t m);

/// Watts–Strogatz small world: ring lattice where each vertex connects to
/// `k/2` neighbours on each side, each edge rewired w.p. `beta`.
/// Requires k even, k < n.
Graph make_watts_strogatz(rng::Rng& rng, std::size_t n, std::size_t k, double beta);

/// Two-tier asymmetric graph: a clique of `hub_count` hubs, every other
/// vertex attached to `spokes_per_leaf` random hubs.  Models extreme
/// structural asymmetry (generalised star) for DNH stress tests.
Graph make_two_tier(rng::Rng& rng, std::size_t n, std::size_t hub_count,
                    std::size_t spokes_per_leaf);

}  // namespace ld::graph
