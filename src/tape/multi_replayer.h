// Batched multi-config replay: decode a tape ONCE and fan every decoded
// batch out to N independent simulations.
//
// Streaming replay (replay_into straight into a TimingModel) re-decodes the
// tape for every machine configuration — an N-point axis pays the varint/
// zigzag decode N times per cell. multi_replay splits decode from
// simulation: replay_into drives a BatchingSink that expands the tape into
// fixed-size structure-of-arrays op batches (op kind, flag, payload,
// address), and each full batch is fed to every sink before the next batch
// is decoded. Decode cost is paid once per tape regardless of how many
// machine points consume it.
//
// Determinism contract: every sink receives exactly the same call sequence,
// in exactly tape order, as a dedicated replay_into would deliver — the
// batch is immutable while it fans out, and the sinks advance interleaved
// on the calling thread, so each simulation's state evolution is
// bit-identical to a solo replay.
//
// Batch lookahead: while feeding op i, the decoded address of a data op a
// few slots ahead is known, so the sink's L1D/DTLB sets can be software-
// prefetched into the HOST cache before the probe walks them (sinks expose
// this via an optional prefetch_data(Addr) hook; sinks without one — test
// collectors — simply skip it).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "tape/tape.h"

namespace selcache::tape {

/// Default ops per decoded batch. Sized from `selcache tape --stat` plus a
/// measured sweep (64..65536 ops on the 4-point fig5 axis): the suite's
/// tapes decode to millions of ops each, so even 512-op batches amortize
/// the per-batch fan-out to noise (thousands of batches per tape), and the
/// small SoA slice (~11 KB) leaves the sinks' own tag/table state
/// cache-resident between batches — 8K-op batches measured ~15% slower
/// because each fan-out pass re-streams a 176 KB batch through the cache.
inline constexpr std::uint32_t kDefaultBatchOps = 512;

/// How many ops ahead of the one being fed the lookahead prefetch runs.
inline constexpr std::uint32_t kPrefetchLookahead = 8;

/// A fixed-size structure-of-arrays slice of a decoded tape.
struct OpBatch {
  explicit OpBatch(std::uint32_t capacity)
      : cap(capacity),
        op(capacity),
        flag(capacity),
        val(capacity),
        addr(capacity) {}

  std::uint32_t cap;               ///< capacity (ops per batch)
  std::uint32_t n = 0;             ///< ops currently held
  std::vector<std::uint8_t> op;    ///< tape::Op of each slot
  std::vector<std::uint8_t> flag;  ///< dependent / taken / on bit
  std::vector<std::uint64_t> val;  ///< instr count, or toggle region + 1
  std::vector<Addr> addr;          ///< data address or pc
};

/// Feed one decoded batch to `sink`, in tape order, with lookahead
/// prefetch of upcoming data-op sets when the sink supports it.
template <typename Sink>
void replay_batch(const OpBatch& b, Sink& sink) {
  constexpr bool kCanPrefetch =
      requires(Sink& s, Addr a) { s.prefetch_data(a); };
  for (std::uint32_t i = 0; i < b.n; ++i) {
    if constexpr (kCanPrefetch) {
      const std::uint32_t j = i + kPrefetchLookahead;
      if (j < b.n) {
        const Op nxt = static_cast<Op>(b.op[j]);
        if (nxt == Op::Load || nxt == Op::Store) sink.prefetch_data(b.addr[j]);
      }
    }
    switch (static_cast<Op>(b.op[i])) {
      case Op::Load:
        sink.load(b.addr[i], b.flag[i] != 0);
        break;
      case Op::Store:
        sink.store(b.addr[i]);
        break;
      case Op::Ifetch:
        sink.touch_code(b.addr[i], static_cast<std::uint32_t>(b.val[i]));
        break;
      case Op::Branch:
        sink.branch(b.addr[i], b.flag[i] != 0);
        break;
      case Op::Compute:
        sink.compute(b.val[i]);
        break;
      case Op::Toggle:
        sink.toggle(b.flag[i] != 0,
                    static_cast<std::int32_t>(
                        static_cast<std::int64_t>(b.val[i]) - 1));
        break;
      case Op::Loop:
        break;  // loop records are expanded before batching; never stored
    }
  }
}

/// replay_into sink that accumulates decoded ops into an OpBatch and hands
/// every full batch to `on_batch`. Call flush() after replay_into returns
/// to deliver the final partial batch.
template <typename OnBatch>
class BatchingSink {
 public:
  BatchingSink(std::uint32_t batch_ops, OnBatch on_batch)
      : b_(batch_ops), on_batch_(std::move(on_batch)) {}

  void load(Addr a, bool dependent) { push(Op::Load, dependent, 0, a); }
  void store(Addr a) { push(Op::Store, false, 0, a); }
  void touch_code(Addr pc, std::uint32_t n) { push(Op::Ifetch, false, n, pc); }
  void branch(Addr pc, bool taken) { push(Op::Branch, taken, 0, pc); }
  void compute(std::uint64_t n) { push(Op::Compute, false, n, 0); }
  void toggle(bool on, std::int32_t region) {
    // Same unsigned round-trip as the trace capture: region + 1, so the
    // unattributed region (-1) travels as 0.
    push(Op::Toggle, on,
         static_cast<std::uint64_t>(static_cast<std::int64_t>(region) + 1),
         0);
  }

  void flush() {
    if (b_.n > 0) {
      on_batch_(static_cast<const OpBatch&>(b_));
      b_.n = 0;
    }
  }

 private:
  void push(Op op, bool flag, std::uint64_t val, Addr addr) {
    const std::uint32_t i = b_.n;
    b_.op[i] = static_cast<std::uint8_t>(op);
    b_.flag[i] = flag ? 1 : 0;
    b_.val[i] = val;
    b_.addr[i] = addr;
    if (++b_.n == b_.cap) {
      on_batch_(static_cast<const OpBatch&>(b_));
      b_.n = 0;
    }
  }

  OpBatch b_;
  OnBatch on_batch_;
};

/// Decode `tape` once and drive every sink in `sinks` with its full op
/// stream, one batch of `batch_ops` ops (kDefaultBatchOps when 0) at a time.
/// Throws what replay_into / the sinks throw.
template <typename Sink>
void multi_replay(const Tape& tape, const std::vector<Sink*>& sinks,
                  std::uint32_t batch_ops = kDefaultBatchOps) {
  if (sinks.empty()) return;
  if (batch_ops == 0) batch_ops = kDefaultBatchOps;
  BatchingSink sink(batch_ops, [&](const OpBatch& b) {
    for (Sink* s : sinks) replay_batch(b, *s);
  });
  replay_into(tape, sink);
  sink.flush();
}

}  // namespace selcache::tape
