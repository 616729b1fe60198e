#include "bisim/partition.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_set>

#include "core/error.hpp"
#include "exp/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::bisim {
namespace {

/// Signature entry: (action, target block) packed into 64 bits — exact,
/// both ids are 32-bit.  Sorting packed entries sorts by action then block,
/// the same order the old pair-vector signatures used.
inline std::uint64_t pack_entry(lts::ActionId action, BlockId block) noexcept {
    return (static_cast<std::uint64_t>(action) << 32) | block;
}

/// FNV-1a over the packed entries of a signature with extra avalanching;
/// collisions are resolved by comparing the arena slices, so correctness
/// never depends on hash quality.
inline std::uint64_t hash_sig(std::span<const std::uint64_t> sig) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull ^ sig.size();
    for (const std::uint64_t entry : sig) {
        h ^= entry;
        h *= 0x100000001b3ull;
        h ^= h >> 29;
    }
    return h;
}

/// Partition of the states 0..n-1 into blocks, shared by the strong and the
/// branching refiner: each computes per-state signatures its own way and
/// hands them to split().  The members of each block form a contiguous
/// segment of `members_`, kept in stable order across splits, so numbering
/// new blocks by first-state occurrence is deterministic.
class BlockSplitter {
public:
    explicit BlockSplitter(std::size_t n)
        : block_(n, 0), members_(n), seg_begin_{0}, seg_end_{static_cast<std::uint32_t>(n)} {
        for (lts::StateId s = 0; s < n; ++s) members_[s] = s;
        seg_begin_.reserve(n);
        seg_end_.reserve(n);
    }

    [[nodiscard]] const std::vector<BlockId>& blocks() const noexcept { return block_; }
    [[nodiscard]] std::size_t num_blocks() const noexcept { return seg_begin_.size(); }

    /// Groups the members of every block in \p affected (ascending ids) by
    /// \p sig_of(state), a std::span<const std::uint64_t> that stays valid
    /// for the whole call.  Groups are numbered by first occurrence (open
    /// addressing on the hash, slice compares on collision); the first keeps
    /// the block id and later ones get fresh sequential ids.  Appends every
    /// state that changed block to \p moved.
    template <typename SigOf>
    void split(std::span<const BlockId> affected, const SigOf& sig_of,
               std::vector<lts::StateId>& moved) {
        for (const BlockId b : affected) {
            const std::uint32_t lo = seg_begin_[b];
            const std::uint32_t hi = seg_end_[b];
            const std::uint32_t count = hi - lo;
            if (count <= 1) continue;

            std::size_t cap = 16;
            while (cap < static_cast<std::size_t>(count) * 2) cap <<= 1;
            slot_.assign(cap, 0);
            group_rep_.clear();
            group_count_.clear();
            group_of_.resize(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                const lts::StateId s = members_[lo + i];
                const std::span<const std::uint64_t> sig = sig_of(s);
                std::size_t pos = hash_sig(sig) & (cap - 1);
                while (true) {
                    if (slot_[pos] == 0) {
                        slot_[pos] = static_cast<std::uint32_t>(group_rep_.size()) + 1;
                        group_of_[i] = static_cast<std::uint32_t>(group_rep_.size());
                        group_rep_.push_back(s);
                        group_count_.push_back(1);
                        break;
                    }
                    const std::uint32_t g = slot_[pos] - 1;
                    if (std::ranges::equal(sig, sig_of(group_rep_[g]))) {
                        group_of_[i] = g;
                        ++group_count_[g];
                        break;
                    }
                    pos = (pos + 1) & (cap - 1);
                }
            }
            const auto num_groups = static_cast<std::uint32_t>(group_rep_.size());
            if (num_groups <= 1) continue;

            group_id_.resize(num_groups);
            group_cursor_.assign(num_groups + 1, 0);
            for (std::uint32_t g = 0; g < num_groups; ++g) {
                group_cursor_[g + 1] = group_cursor_[g] + group_count_[g];
            }
            group_id_[0] = b;
            seg_end_[b] = lo + group_count_[0];
            for (std::uint32_t g = 1; g < num_groups; ++g) {
                group_id_[g] = static_cast<BlockId>(seg_begin_.size());
                seg_begin_.push_back(lo + group_cursor_[g]);
                seg_end_.push_back(lo + group_cursor_[g + 1]);
            }
            seg_scratch_.assign(members_.begin() + lo, members_.begin() + hi);
            for (std::uint32_t i = 0; i < count; ++i) {
                const std::uint32_t g = group_of_[i];
                const lts::StateId s = seg_scratch_[i];
                members_[lo + group_cursor_[g]++] = s;
                if (g != 0) {
                    block_[s] = group_id_[g];
                    moved.push_back(s);
                }
            }
        }
    }

private:
    std::vector<BlockId> block_;
    std::vector<lts::StateId> members_;
    std::vector<std::uint32_t> seg_begin_;
    std::vector<std::uint32_t> seg_end_;
    // Grouping scratch, reused across blocks and rounds.
    std::vector<std::uint32_t> slot_;
    std::vector<lts::StateId> group_rep_;
    std::vector<std::uint32_t> group_count_;
    std::vector<std::uint32_t> group_of_;
    std::vector<BlockId> group_id_;
    std::vector<std::uint32_t> group_cursor_;
    std::vector<lts::StateId> seg_scratch_;
};

/// Process-wide pool for signature computation (jobs == 0 callers).  Sized
/// by DPMA_JOBS / hardware once; refine calls may nest inside experiment
/// workers, which the pool supports (the caller participates in run()).
exp::ThreadPool& shared_pool() {
    static exp::ThreadPool pool;
    return pool;
}

}  // namespace

std::size_t RefinementResult::separation_round(lts::StateId a, lts::StateId b) const {
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        if (rounds[r][a] != rounds[r][b]) return r;
    }
    return 0;
}

RefinementResult refine_strong(const lts::Lts& model) {
    return refine_strong(model, 0);
}

RefinementResult refine_strong(const lts::Lts& model, std::size_t jobs) {
    const std::size_t n = model.num_states();
    DPMA_NAMED_SPAN(span, "bisim.refine", "bisim");
    span.arg("states", static_cast<double>(n));
    RefinementResult result;
    result.rounds.emplace_back(n, BlockId{0});
    if (n == 0) return result;

    const std::span<const std::uint32_t> off = model.offsets();
    const std::span<const lts::Transition> trans = model.transitions();
    const std::size_t m = trans.size();

    // 8-byte shadow of the transition array: refinement only ever reads
    // (action, target), not the 48-byte rate-carrying Transition, and the
    // rounds re-walk this array many times.
    std::vector<std::uint64_t> edges(m);
    for (std::size_t k = 0; k < m; ++k) {
        edges[k] = pack_entry(trans[k].action, trans[k].target);
    }

    // Reverse adjacency in CSR form: who has to be re-signed when a state
    // changes block.
    std::vector<std::uint32_t> pred_off(n + 1, 0);
    for (const std::uint64_t e : edges) ++pred_off[static_cast<std::uint32_t>(e) + 1];
    for (std::size_t s = 0; s < n; ++s) pred_off[s + 1] += pred_off[s];
    std::vector<lts::StateId> preds(m);
    {
        std::vector<std::uint32_t> cursor(pred_off.begin(), pred_off.end() - 1);
        for (lts::StateId s = 0; s < n; ++s) {
            for (std::uint32_t k = off[s]; k < off[s + 1]; ++k) {
                preds[cursor[static_cast<std::uint32_t>(edges[k])]++] = s;
            }
        }
    }

    // Sort each row by action once, so re-signing can walk equal-action runs
    // and never needs a per-round sort (see resign_range below).
    for (lts::StateId s = 0; s < n; ++s) {
        std::sort(edges.begin() + off[s], edges.begin() + off[s + 1]);
    }

    // Signature arena: state s owns sig_data[off[s] .. off[s+1]), of which
    // the first sig_len[s] entries are its current sorted deduplicated
    // signature.  Stored signatures stay valid until a successor changes
    // block, which is exactly when the state is marked dirty — split blocks
    // keep their id for the first-occurrence sub-block, so an unchanged
    // block id always still denotes the successor's block.
    std::vector<std::uint64_t> sig_data(m);
    std::vector<std::uint32_t> sig_len(n, 0);
    std::vector<char> sig_changed(n, 0);

    BlockSplitter partition(n);
    const std::vector<BlockId>& cur = partition.blocks();

    std::vector<lts::StateId> dirty(n);
    for (lts::StateId s = 0; s < n; ++s) dirty[s] = s;
    std::vector<char> in_dirty(n, 0);
    std::vector<char> block_affected(n, 0);

    std::optional<exp::ThreadPool> local_pool;
    exp::ThreadPool* pool = nullptr;
    if (jobs == 0) {
        pool = &shared_pool();
    } else if (jobs > 1) {
        local_pool.emplace(jobs);
        pool = &*local_pool;
    }

    // Re-signs dirty[lo..hi) against the current block ids; flags states
    // whose signature value actually changed.  Writes only per-state slots,
    // so chunks may run concurrently and results are chunking-independent.
    //
    // Rows are pre-sorted by action, so the canonical sorted deduplicated
    // signature falls out without any per-round sorting: walk each
    // equal-action run, mark the successors' blocks in a bitmap, and emit
    // the set bits in ascending order.  Saturated systems have huge tau
    // runs, which this reduces to O(edges + touched words).
    struct SigScratch {
        std::vector<std::uint64_t> entries;
        std::vector<std::uint64_t> block_bits;
    };
    const auto resign_range = [&](std::size_t lo, std::size_t hi, SigScratch& sc) {
        if (sc.block_bits.empty()) sc.block_bits.assign((n >> 6) + 1, 0);
        for (std::size_t i = lo; i < hi; ++i) {
            const lts::StateId s = dirty[i];
            std::vector<std::uint64_t>& entries = sc.entries;
            entries.clear();
            std::uint32_t k = off[s];
            const std::uint32_t kend = off[s + 1];
            while (k < kend) {
                const std::uint64_t action_tag = edges[k] & 0xFFFFFFFF00000000ull;
                std::uint32_t run_end = k + 1;
                while (run_end < kend &&
                       (edges[run_end] & 0xFFFFFFFF00000000ull) == action_tag) {
                    ++run_end;
                }
                if (run_end - k == 1) {
                    entries.push_back(action_tag |
                                      cur[static_cast<std::uint32_t>(edges[k])]);
                } else {
                    std::size_t min_w = static_cast<std::size_t>(-1);
                    std::size_t max_w = 0;
                    for (; k < run_end; ++k) {
                        const BlockId blk = cur[static_cast<std::uint32_t>(edges[k])];
                        const std::size_t w = blk >> 6;
                        sc.block_bits[w] |= std::uint64_t{1} << (blk & 63);
                        min_w = std::min(min_w, w);
                        max_w = std::max(max_w, w);
                    }
                    for (std::size_t w = min_w; w <= max_w; ++w) {
                        std::uint64_t bits = sc.block_bits[w];
                        sc.block_bits[w] = 0;
                        while (bits != 0) {
                            entries.push_back(
                                action_tag | ((w << 6) + static_cast<std::size_t>(
                                                             std::countr_zero(bits))));
                            bits &= bits - 1;
                        }
                    }
                }
                k = run_end;
            }
            const auto len = static_cast<std::uint32_t>(entries.size());
            if (len == sig_len[s] &&
                std::equal(entries.begin(), entries.end(), sig_data.begin() + off[s])) {
                continue;
            }
            std::copy(entries.begin(), entries.end(), sig_data.begin() + off[s]);
            sig_len[s] = len;
            sig_changed[s] = 1;
        }
    };

    const auto sig_of = [&](lts::StateId s) {
        return std::span<const std::uint64_t>(sig_data.data() + off[s], sig_len[s]);
    };
    std::vector<BlockId> affected;
    std::vector<lts::StateId> newly_changed;

    std::size_t total_resigned = 0;
    while (!dirty.empty()) {
        total_resigned += dirty.size();
        constexpr std::size_t kMinParallel = 2048;
        if (pool != nullptr && pool->jobs() > 1 && dirty.size() >= kMinParallel) {
            const std::size_t chunks =
                std::min(pool->jobs() * 4, dirty.size() / (kMinParallel / 4));
            pool->run(chunks, [&](std::size_t c) {
                SigScratch scratch;
                resign_range(dirty.size() * c / chunks,
                             dirty.size() * (c + 1) / chunks, scratch);
            });
        } else {
            SigScratch scratch;
            resign_range(0, dirty.size(), scratch);
        }

        // Blocks with at least one member whose signature changed are the
        // only candidates for splitting: every block's members had equal
        // signatures after the previous round, and untouched signatures are
        // still valid.
        affected.clear();
        for (const lts::StateId s : dirty) {
            if (sig_changed[s] != 0 && block_affected[cur[s]] == 0) {
                block_affected[cur[s]] = 1;
                affected.push_back(cur[s]);
            }
        }
        std::sort(affected.begin(), affected.end());
        for (const lts::StateId s : dirty) sig_changed[s] = 0;
        for (const BlockId b : affected) block_affected[b] = 0;

        newly_changed.clear();
        partition.split(affected, sig_of, newly_changed);

        if (newly_changed.empty()) break;
        result.rounds.push_back(cur);

        // Next round's dirty set: predecessors of every state that moved.
        dirty.clear();
        for (const lts::StateId t : newly_changed) {
            for (std::uint32_t k = pred_off[t]; k < pred_off[t + 1]; ++k) {
                const lts::StateId p = preds[k];
                if (in_dirty[p] == 0) {
                    in_dirty[p] = 1;
                    dirty.push_back(p);
                }
            }
        }
        for (const lts::StateId p : dirty) in_dirty[p] = 0;
    }

    obs::counter("bisim.refine.calls").add();
    obs::counter("bisim.refine.rounds").add(result.rounds.size() - 1);
    obs::counter("bisim.refine.states_resigned").add(total_resigned);
    obs::histogram("bisim.refine.rounds_per_call")
        .observe(static_cast<double>(result.rounds.size() - 1));
    span.arg("rounds", static_cast<double>(result.rounds.size() - 1));
    return result;
}

std::vector<BlockId> refine_branching(const lts::Lts& model) {
    const std::size_t n = model.num_states();
    DPMA_NAMED_SPAN(span, "bisim.branching", "bisim");
    span.arg("states", static_cast<double>(n));
    if (n == 0) return {};
    const lts::ActionId tau = model.actions()->tau();
    for (lts::StateId s = 0; s < n; ++s) {
        for (const lts::Transition& t : model.out(s)) {
            DPMA_REQUIRE(t.action != tau || t.target < s,
                         "refine_branching needs tau transitions to descend in id");
        }
    }

    BlockSplitter partition(n);
    const std::vector<BlockId>& block = partition.blocks();
    // This round's signatures, appended in ascending state order: state s
    // owns arena[sig_off[s] .. sig_off[s+1]), sorted and deduplicated.
    std::vector<std::uint64_t> arena;
    std::vector<std::size_t> sig_off(n + 1, 0);
    const auto sig_of = [&](lts::StateId s) {
        return std::span<const std::uint64_t>(arena.data() + sig_off[s],
                                              sig_off[s + 1] - sig_off[s]);
    };
    std::vector<std::uint64_t> entries;
    std::vector<BlockId> all_blocks;
    std::vector<lts::StateId> moved;
    std::size_t rounds = 0;
    while (true) {
        arena.clear();
        for (lts::StateId s = 0; s < n; ++s) {
            entries.clear();
            for (const lts::Transition& t : model.out(s)) {
                if (t.action == tau && block[t.target] == block[s]) {
                    const std::span<const std::uint64_t> inherited = sig_of(t.target);
                    entries.insert(entries.end(), inherited.begin(), inherited.end());
                } else {
                    entries.push_back(pack_entry(t.action, block[t.target]));
                }
            }
            std::sort(entries.begin(), entries.end());
            entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
            arena.insert(arena.end(), entries.begin(), entries.end());
            sig_off[s + 1] = arena.size();
        }
        all_blocks.resize(partition.num_blocks());
        std::iota(all_blocks.begin(), all_blocks.end(), BlockId{0});
        moved.clear();
        partition.split(all_blocks, sig_of, moved);
        if (moved.empty()) break;
        ++rounds;
    }

    obs::counter("bisim.branching.rounds").add(rounds);
    obs::counter("bisim.branching.blocks").add(partition.num_blocks());
    span.arg("blocks", static_cast<double>(partition.num_blocks()));
    span.arg("rounds", static_cast<double>(rounds));
    return block;
}

lts::Lts quotient(const lts::Lts& model, const std::vector<BlockId>& blocks) {
    DPMA_REQUIRE(model.num_states() > 0, "cannot quotient an empty system");
    DPMA_REQUIRE(blocks.size() == model.num_states(),
                 "partition does not match the model");
    const BlockId num_blocks = 1 + *std::max_element(blocks.begin(), blocks.end());

    lts::LtsBuilder out(model.actions());
    lts::SlotRemap slot_of(model, out);
    for (BlockId b = 0; b < num_blocks; ++b) out.add_state();
    // The lowest-id member represents its block (see the header for why
    // that is exact).  (action, block) pairs are deduplicated through the
    // same packed-64-bit keys the refiners use.
    std::vector<lts::StateId> representative(num_blocks, lts::kNoState);
    for (lts::StateId s = static_cast<lts::StateId>(model.num_states()); s-- > 0;) {
        representative[blocks[s]] = s;
    }
    std::unordered_set<std::uint64_t> seen;
    for (BlockId b = 0; b < num_blocks; ++b) {
        if (representative[b] == lts::kNoState) continue;  // unused block id
        seen.clear();
        for (const lts::Transition& t : model.out(representative[b])) {
            if (seen.insert(pack_entry(t.action, blocks[t.target])).second) {
                out.add_slot_transition(b, slot_of(t.slot, t.action), blocks[t.target]);
            }
        }
    }
    if (model.initial() != lts::kNoState) {
        out.set_initial(blocks[model.initial()]);
    }
    return std::move(out).build();
}

}  // namespace dpma::bisim
