#include "ld/model/instance.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/expect.hpp"

namespace ld::model {

using support::expects;

Instance::Instance(graph::Graph g, CompetencyVector p, double alpha)
    : graph_(std::move(g)), competencies_(std::move(p)), alpha_(alpha) {
    expects(graph_.vertex_count() == competencies_.size(),
            "Instance: graph/competency size mismatch");
    expects(alpha_ > 0.0, "Instance: alpha must be positive (acyclicity requires it)");
    // Precompute the approval CSR: one O(n + m) pass at construction buys
    // allocation-free approved_neighbours_view() in the replication loop.
    // Both passes are branch-free (the approval test is data-dependent and
    // mispredicts): count, then fill by writing every neighbour and
    // advancing the cursor only past approved ones.  A stray write lands
    // on a slot that its owner overwrites later, or on the one slack slot
    // past the end, which is dropped.
    const std::size_t n = graph_.vertex_count();
    const double* competency = competencies_.values().data();
    approved_offsets_.assign(n + 1, 0);
    for (graph::Vertex v = 0; v < n; ++v) {
        const double bar = competency[v] + alpha_;
        std::size_t count = 0;
        for (graph::Vertex w : graph_.neighbours(v)) count += bar <= competency[w];
        approved_offsets_[v + 1] = approved_offsets_[v] + count;
    }
    approved_flat_.resize(approved_offsets_[n] + 1);
    for (graph::Vertex v = 0; v < n; ++v) {
        const double bar = competency[v] + alpha_;
        graph::Vertex* at = approved_flat_.data() + approved_offsets_[v];
        for (graph::Vertex w : graph_.neighbours(v)) {
            *at = w;
            at += bar <= competency[w];
        }
    }
    approved_flat_.pop_back();
}

std::vector<graph::Vertex> Instance::approved_neighbours(graph::Vertex v) const {
    const auto view = approved_neighbours_view(v);
    return {view.begin(), view.end()};
}

std::vector<std::size_t> Instance::approved_neighbour_counts() const {
    std::vector<std::size_t> counts(voter_count());
    for (graph::Vertex v = 0; v < voter_count(); ++v) {
        counts[v] = approved_offsets_[v + 1] - approved_offsets_[v];
    }
    return counts;
}

std::size_t Instance::partition_complexity_bound() const {
    // A tiny alpha puts ⌈1/α⌉ past size_t (or at +inf); casting it would be
    // undefined behaviour, so the bound saturates.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    const double bound = std::ceil(1.0 / alpha_);
    return bound < static_cast<double>(kMax) ? static_cast<std::size_t>(bound) : kMax;
}

std::string Instance::describe() const {
    std::ostringstream os;
    os << "Instance(n=" << voter_count() << ", m=" << graph_.edge_count()
       << ", alpha=" << alpha_ << ", mean_p=" << competencies_.mean() << ")";
    return os.str();
}

}  // namespace ld::model
