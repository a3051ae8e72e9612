// Immutable undirected simple graph in compressed-sparse-row form, plus a
// mutable builder.  This is the voting-graph substrate: vertices are voters,
// an edge means the two voters are aware of each other (paper §2.1).

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ld::graph {

/// Vertex identifier.  Vertices are always 0..n-1.
using Vertex = std::uint32_t;

/// An undirected edge as an (ordered) vertex pair with u <= v.
struct Edge {
    Vertex u;
    Vertex v;
    friend bool operator==(const Edge&, const Edge&) = default;
    friend auto operator<=>(const Edge&, const Edge&) = default;
};

class GraphBuilder;

/// Immutable undirected simple graph (no self-loops, no parallel edges).
///
/// Stored in CSR form: `offsets_[v] .. offsets_[v+1]` indexes into
/// `neighbours_`, which lists each vertex's neighbours in ascending order.
/// Construction goes through `GraphBuilder`, which deduplicates, or
/// `from_csr`, which validates.
class Graph {
public:
    /// An empty graph with `n` vertices and no edges.
    static Graph empty(std::size_t n);

    /// Adopt an already-assembled CSR (offsets size n+1, neighbours size
    /// 2m with each vertex's range ascending, deduplicated, loop-free,
    /// and symmetric).  Validates the invariants in O(n + m) — symmetry
    /// by one cursor walk, no per-half-edge search — and throws
    /// ContractViolation on any breach.  The entry point for builders
    /// that assemble CSR directly instead of buffering an edge list
    /// through GraphBuilder (make_complete, the streaming generators).
    static Graph from_csr(std::vector<std::size_t> offsets,
                          std::vector<Vertex> neighbours);

    std::size_t vertex_count() const noexcept { return offsets_.size() - 1; }
    std::size_t edge_count() const noexcept { return neighbours_.size() / 2; }

    /// Neighbours of `v`, ascending.  O(1).
    std::span<const Vertex> neighbours(Vertex v) const {
        return {neighbours_.data() + offsets_[v], neighbours_.data() + offsets_[v + 1]};
    }

    /// Degree of `v`.  O(1).
    std::size_t degree(Vertex v) const noexcept { return offsets_[v + 1] - offsets_[v]; }

    /// Whether edge {u, v} exists.  O(log deg).
    bool has_edge(Vertex u, Vertex v) const;

    /// All edges with u < v, in ascending (u, v) order.
    std::vector<Edge> edges() const;

    friend bool operator==(const Graph&, const Graph&) = default;

private:
    friend class GraphBuilder;
    Graph(std::vector<std::size_t> offsets, std::vector<Vertex> neighbours)
        : offsets_(std::move(offsets)), neighbours_(std::move(neighbours)) {}

    std::vector<std::size_t> offsets_;   // size n+1
    std::vector<Vertex> neighbours_;     // size 2m, sorted per vertex
};

/// Accumulates edges and produces a validated `Graph`.
///
/// Duplicate edge insertions are tolerated and collapsed; self-loops are
/// rejected (the model is a simple graph).
class GraphBuilder {
public:
    /// Builder over `n` vertices (ids 0..n-1).
    explicit GraphBuilder(std::size_t n);

    std::size_t vertex_count() const noexcept { return n_; }

    /// Add undirected edge {u, v}.  Precondition: u != v, both < n.
    /// Returns *this for chaining.
    GraphBuilder& add_edge(Vertex u, Vertex v);

    /// Number of (possibly duplicated) edge insertions so far.
    std::size_t pending_edge_count() const noexcept { return raw_.size(); }

    /// Finalize into an immutable Graph.  The builder may be reused after.
    Graph build() const;

private:
    std::size_t n_;
    std::vector<Edge> raw_;
};

}  // namespace ld::graph
