// Dense bit-packed sets (memory-layout layer, DESIGN.md §13).
//
// The taint engine's per-run bookkeeping — which statements of a method a
// slice touched, which of its blocks are queued, which event roots may
// exchange global taint — is dense over small integer universes (the
// block/statement indices of one method, the event roots of one app). std::set<std::uint32_t> spent a red-black node per
// element and a pointer chase per query; a DenseBitset spends one bit and
// propagates whole sets with bulk word-OR, the representation the yosys
// taint kernel strips propagation down to (SNIPPETS.md snippet 1:
// propagate-as-max/or-over-operands).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace extractocol::support {

class DenseBitset {
public:
    DenseBitset() = default;
    explicit DenseBitset(std::size_t bits) { resize(bits); }

    /// Grows/shrinks the universe; new bits are zero.
    void resize(std::size_t bits) {
        bits_ = bits;
        words_.resize((bits + 63) / 64, 0);
    }

    [[nodiscard]] std::size_t size() const { return bits_; }

    [[nodiscard]] bool test(std::size_t i) const {
        return (words_[i >> 6] >> (i & 63)) & 1u;
    }

    /// Sets bit i; returns true if it was previously clear.
    bool set(std::size_t i) {
        std::uint64_t& w = words_[i >> 6];
        std::uint64_t mask = std::uint64_t{1} << (i & 63);
        if (w & mask) return false;
        w |= mask;
        return true;
    }

    /// Clears bit i.
    void clear(std::size_t i) {
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    /// Bulk OR; returns true if any bit changed. `other` must not be larger.
    bool or_with(const DenseBitset& other) {
        bool changed = false;
        for (std::size_t w = 0; w < other.words_.size(); ++w) {
            std::uint64_t merged = words_[w] | other.words_[w];
            changed |= merged != words_[w];
            words_[w] = merged;
        }
        return changed;
    }

    /// True if this and `other` share any set bit.
    [[nodiscard]] bool intersects(const DenseBitset& other) const {
        std::size_t n = words_.size() < other.words_.size() ? words_.size()
                                                            : other.words_.size();
        for (std::size_t w = 0; w < n; ++w) {
            if (words_[w] & other.words_[w]) return true;
        }
        return false;
    }

    [[nodiscard]] bool any() const {
        for (std::uint64_t w : words_) {
            if (w != 0) return true;
        }
        return false;
    }

    [[nodiscard]] std::size_t count() const {
        std::size_t total = 0;
        for (std::uint64_t w : words_) total += static_cast<std::size_t>(__builtin_popcountll(w));
        return total;
    }

    /// Calls fn(index) for every set bit, in ascending order — the bridge
    /// back to ordered containers where output order matters.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w != 0) {
                unsigned bit = static_cast<unsigned>(__builtin_ctzll(w));
                fn(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    bool operator==(const DenseBitset&) const = default;

private:
    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_;
};

}  // namespace extractocol::support
