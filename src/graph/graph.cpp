#include "graph/graph.hpp"

#include <algorithm>

#include "support/expect.hpp"

namespace ld::graph {

using support::expects;

Graph Graph::empty(std::size_t n) {
    return Graph(std::vector<std::size_t>(n + 1, 0), {});
}

Graph Graph::from_csr(std::vector<std::size_t> offsets, std::vector<Vertex> neighbours) {
    expects(!offsets.empty(), "from_csr: offsets must have size n + 1");
    expects(offsets.front() == 0 && offsets.back() == neighbours.size(),
            "from_csr: offsets must span the neighbour array");
    const std::size_t n = offsets.size() - 1;
    expects(neighbours.size() % 2 == 0, "from_csr: half-edge count must be even");
    for (std::size_t v = 0; v < n; ++v) {
        expects(offsets[v] <= offsets[v + 1], "from_csr: offsets must be monotone");
        for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
            expects(neighbours[i] < n, "from_csr: neighbour out of range");
            expects(neighbours[i] != v, "from_csr: self-loops are not allowed");
            expects(i == offsets[v] || neighbours[i - 1] < neighbours[i],
                    "from_csr: adjacency must be ascending and deduplicated");
        }
    }
    // Symmetry by a cursor walk, O(n + m) with no search.  Visiting v
    // ascending, the entries of v before cursor[v] were consumed as the
    // mirrors of earlier queries; each remaining (v, u) is a query whose
    // mirror must be the next unconsumed entry of u's ascending list.
    // Every half-edge is thus a query that found its mirror or the mirror
    // of one.  On a symmetric graph only the u > v half is queried.
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t i = cursor[v]; i < offsets[v + 1]; ++i) {
            const Vertex u = neighbours[i];
            std::size_t& next = cursor[u];
            expects(next < offsets[u + 1] && neighbours[next] == v,
                    "from_csr: adjacency must be symmetric");
            ++next;
        }
    }
    return Graph(std::move(offsets), std::move(neighbours));
}

bool Graph::has_edge(Vertex u, Vertex v) const {
    if (u >= vertex_count() || v >= vertex_count()) return false;
    // Search the smaller adjacency list.
    if (degree(u) > degree(v)) std::swap(u, v);
    const auto nbrs = neighbours(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
    std::vector<Edge> out;
    out.reserve(edge_count());
    for (Vertex u = 0; u < vertex_count(); ++u) {
        for (Vertex v : neighbours(u)) {
            if (u < v) out.push_back(Edge{u, v});
        }
    }
    return out;
}

GraphBuilder::GraphBuilder(std::size_t n) : n_(n) {}

GraphBuilder& GraphBuilder::add_edge(Vertex u, Vertex v) {
    expects(u < n_ && v < n_, "add_edge: vertex out of range");
    expects(u != v, "add_edge: self-loops are not allowed");
    if (u > v) std::swap(u, v);
    raw_.push_back(Edge{u, v});
    return *this;
}

Graph GraphBuilder::build() const {
    std::vector<Edge> edges = raw_;
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    std::vector<std::size_t> offsets(n_ + 1, 0);
    for (const Edge& e : edges) {
        ++offsets[e.u + 1];
        ++offsets[e.v + 1];
    }
    for (std::size_t i = 1; i <= n_; ++i) offsets[i] += offsets[i - 1];

    std::vector<Vertex> neighbours(edges.size() * 2);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : edges) {
        neighbours[cursor[e.u]++] = e.v;
        neighbours[cursor[e.v]++] = e.u;
    }
    // Each range is already ascending: for vertex x the sorted edges
    // deliver its smaller neighbours (edges (u, x), ascending u) before
    // its larger ones (edges (x, v), ascending v).
    return Graph(std::move(offsets), std::move(neighbours));
}

}  // namespace ld::graph
