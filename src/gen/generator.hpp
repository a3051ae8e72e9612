// Streaming generator core: generators partition their work into fixed
// *cells* (a vertex row, a block of edge draws, a geometry tile) and emit
// each cell's edges into a chunked sink.  Cell boundaries and per-cell RNG
// streams depend only on (config, cell index) — never on chunk size,
// shard, or thread count — so the deduplicated CSR a sink accumulates is
// byte-identical however the work is sliced.  See docs/GENERATORS.md.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gen/config.hpp"
#include "graph/graph.hpp"

namespace ld::gen {

/// Consumer of edge chunks.  `accept` MUST be thread-safe: generate()
/// calls it concurrently from worker threads when config.threads > 1.
/// Edges arrive canonicalised (u < v, no self-loops) but possibly
/// duplicated across chunks; sinks that build graphs deduplicate.
class EdgeSink {
public:
    virtual ~EdgeSink() = default;
    virtual void accept(std::span<const graph::Edge> chunk) = 0;
};

/// Per-worker staging buffer between a generator cell and the sink:
/// filters self-loops, canonicalises endpoint order, and flushes to the
/// sink every `capacity` edges.
class ChunkBuffer {
public:
    ChunkBuffer(EdgeSink& sink, std::size_t capacity);

    void emit(graph::Vertex u, graph::Vertex v) {
        if (u == v) return;  // simple graphs only
        if (u > v) std::swap(u, v);
        buffer_.push_back(graph::Edge{u, v});
        if (buffer_.size() >= capacity_) flush();
    }

    /// Push any buffered edges to the sink (possibly a short chunk).
    void flush();

    std::uint64_t edges_emitted() const noexcept { return edges_; }
    std::uint64_t chunks_flushed() const noexcept { return chunks_; }

private:
    EdgeSink& sink_;
    std::size_t capacity_;
    std::vector<graph::Edge> buffer_;
    std::uint64_t edges_ = 0;
    std::uint64_t chunks_ = 0;
};

/// Block-cyclic dealing of [0, count): worker `w` of `workers` visits
/// blocks w, w + workers, ... of `block` indices, in ascending order.
template <class Visit>
void for_each_dealt(std::size_t count, std::size_t workers, std::size_t w,
                    std::size_t block, Visit&& visit) {
    for (std::size_t b = w * block; b < count; b += workers * block) {
        const std::size_t end = std::min(count, b + block);
        for (std::size_t i = b; i < end; ++i) visit(i);
    }
}

/// Edge/chunk totals for one streaming pass over a shard's cells.
struct PassTotals {
    std::uint64_t edges = 0;   ///< edges accepted by the sink
    std::uint64_t chunks = 0;  ///< accept() calls
};

/// Base class for every streaming family.  Implementations are immutable
/// after prepare(): emit_cell is const, re-runnable, and called from
/// multiple threads concurrently (on distinct ChunkBuffers).
class StreamingGenerator {
public:
    explicit StreamingGenerator(GeneratorConfig config);
    virtual ~StreamingGenerator() = default;

    StreamingGenerator(const StreamingGenerator&) = delete;
    StreamingGenerator& operator=(const StreamingGenerator&) = delete;

    const GeneratorConfig& config() const noexcept { return config_; }

    /// Number of deterministic work cells.  Valid after prepare().
    virtual std::size_t cell_count() const = 0;

    /// Emit cell `cell`'s edges.  Deterministic given (config, cell);
    /// any RNG use must come from derive_cell_seed(config.seed, cell) or
    /// hash_draw so the cell regenerates byte-identically in isolation.
    virtual void emit_cell(std::size_t cell, ChunkBuffer& out) const = 0;

    /// Build derived indexes (weights, geometry tiles).  Idempotent;
    /// generate() calls it before the first cell.
    virtual void prepare() {}

    /// Expected number of distinct edges (double: some families exceed
    /// 2^64 at absurd parameters).  Used for memory-budget pre-checks.
    virtual double edge_estimate() const = 0;

    /// Bytes of generator-owned derived state after prepare() (weight /
    /// geometry arrays); counted against the memory budget.
    virtual std::size_t prepared_bytes() const { return 0; }

    /// Stream every cell of this config's shard into `sink`, chunked to
    /// config.chunk_edges, on config.threads workers.  Re-runnable: each
    /// pass emits the identical edge stream per cell.
    PassTotals generate(EdgeSink& sink);

private:
    GeneratorConfig config_;
};

}  // namespace ld::gen
