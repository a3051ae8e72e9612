#include "gen/generator.hpp"

#include "support/expect.hpp"
#include "support/thread_pool.hpp"

namespace ld::gen {

ChunkBuffer::ChunkBuffer(EdgeSink& sink, std::size_t capacity)
    : sink_(sink), capacity_(capacity) {
    support::expects(capacity >= 1, "ChunkBuffer: capacity must be >= 1");
    buffer_.reserve(capacity);
}

void ChunkBuffer::flush() {
    if (buffer_.empty()) return;
    sink_.accept(buffer_);
    edges_ += buffer_.size();
    ++chunks_;
    buffer_.clear();
}

StreamingGenerator::StreamingGenerator(GeneratorConfig config)
    : config_(std::move(config)) {
    config_.validate();
}

PassTotals StreamingGenerator::generate(EdgeSink& sink) {
    prepare();
    const std::size_t cells = cell_count();
    const ShardSpec shard = config_.shard;
    // This shard owns cells shard.index, shard.index + count, ... — the
    // same index % count == shard partition the sweep engine uses.
    const std::size_t owned =
        cells > shard.index ? (cells - shard.index - 1) / shard.count + 1 : 0;

    std::size_t threads = config_.threads == 0
                              ? support::ThreadPool::global().worker_count()
                              : config_.threads;
    if (threads > owned) threads = owned == 0 ? 1 : owned;

    PassTotals totals;
    if (threads <= 1) {
        ChunkBuffer buffer(sink, config_.chunk_edges);
        for (std::size_t c = shard.index; c < cells; c += shard.count) {
            emit_cell(c, buffer);
        }
        buffer.flush();
        totals.edges = buffer.edges_emitted();
        totals.chunks = buffer.chunks_flushed();
        return totals;
    }

    // Deal the owned cells round-robin, one buffer per worker: rows of
    // skewed families are heaviest first, and the edge-draw and geometry
    // families have only a handful of large cells.  Dealing only affects
    // emission order, which no sink's final CSR depends on.
    std::vector<PassTotals> worker_totals(threads);
    support::TaskGroup group(support::ThreadPool::global());
    for (std::size_t w = 0; w < threads; ++w) {
        group.submit([this, &sink, &worker_totals, w, threads, owned, shard] {
            ChunkBuffer buffer(sink, config_.chunk_edges);
            for_each_dealt(owned, threads, w, 1, [&](std::size_t i) {
                emit_cell(shard.index + i * shard.count, buffer);
            });
            buffer.flush();
            worker_totals[w].edges = buffer.edges_emitted();
            worker_totals[w].chunks = buffer.chunks_flushed();
        });
    }
    group.wait();
    for (const PassTotals& t : worker_totals) {
        totals.edges += t.edges;
        totals.chunks += t.chunks;
    }
    return totals;
}

}  // namespace ld::gen
