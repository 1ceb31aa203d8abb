#include "struct_hash.hh"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/logging.hh"
#include "tech/cell_library.hh"

namespace flexi
{

namespace
{

constexpr size_t kNoCell = ~size_t{0};
/**
 * Refinement rounds. Each round propagates one full combinational
 * depth plus one register boundary, so 8 rounds digest the state
 * feedback structure to depth 8 — far past what separating the
 * shipped cores needs, cheap enough to hash in microseconds.
 */
constexpr unsigned kRounds = 8;
/** Jacobi rounds used when the graph is (degenerately) cyclic. */
constexpr unsigned kCyclicRounds = 64;

/** splitmix64 finalizer: the 64-bit mixing primitive. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
mix2(uint64_t h, uint64_t v)
{
    return mix64(h ^ mix64(v));
}

/** FNV-1a over a string (for pad names). */
uint64_t
fnv64(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Domain-separation tags for the different node kinds. */
constexpr uint64_t kTagInput = 0x11;
constexpr uint64_t kTagRail0 = 0x22;
constexpr uint64_t kTagRail1 = 0x33;
constexpr uint64_t kTagDff = 0x44;
constexpr uint64_t kTagFree = 0x55;
constexpr uint64_t kTagCell = 0x66;
constexpr uint64_t kTagFinal = 0x77;

/** All inputs interchangeable (sorting their hashes is sound)? */
bool
symmetricInputs(CellType type)
{
    switch (type) {
      case CellType::NAND2:
      case CellType::NAND3:
      case CellType::NOR2:
      case CellType::NOR3:
      case CellType::XOR2:
      case CellType::XNOR2:
        return true;
      default:
        return false;
    }
}

/**
 * Combinational cells in topological order; false on a cycle (the
 * caller falls back to order-independent Jacobi iteration).
 */
bool
combTopo(const Netlist &nl, std::vector<size_t> &order)
{
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();
    std::vector<size_t> driver(num_nets, kNoCell);
    for (size_t i = 0; i < cells.size(); ++i)
        if (!isSequential(cells[i].type) &&
            cells[i].output < num_nets)
            driver[cells[i].output] = i;

    std::vector<unsigned> indeg(cells.size(), 0);
    std::vector<std::vector<size_t>> consumers(cells.size());
    size_t num_comb = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (isSequential(cells[i].type))
            continue;
        ++num_comb;
        for (NetId in : cells[i].inputs) {
            if (in == kNoNet || in >= num_nets)
                continue;
            size_t d = driver[in];
            if (d != kNoCell) {
                consumers[d].push_back(i);
                ++indeg[i];
            }
        }
    }
    std::deque<size_t> ready;
    for (size_t i = 0; i < cells.size(); ++i)
        if (!isSequential(cells[i].type) && indeg[i] == 0)
            ready.push_back(i);
    order.clear();
    while (!ready.empty()) {
        size_t i = ready.front();
        ready.pop_front();
        order.push_back(i);
        for (size_t c : consumers[i])
            if (--indeg[c] == 0)
                ready.push_back(c);
    }
    return order.size() == num_comb;
}

uint64_t
hashCellFrom(const CellInst &cell, const std::vector<uint64_t> &h)
{
    uint64_t ins[3];
    size_t arity = std::min<size_t>(cell.inputs.size(), 3);
    for (size_t k = 0; k < arity; ++k) {
        NetId n = cell.inputs[k];
        ins[k] = (n != kNoNet && n < h.size()) ? h[n]
                                               : mix64(kTagFree);
    }
    if (symmetricInputs(cell.type)) {
        // Three compare-and-swaps sort up to three entries (and
        // keep std::sort's 16-entry insertion sort off the array).
        auto order = [&](size_t a, size_t b) {
            if (b < arity && ins[b] < ins[a])
                std::swap(ins[a], ins[b]);
        };
        order(0, 1);
        order(1, 2);
        order(0, 1);
    }
    uint64_t v = mix2(kTagCell,
                      static_cast<uint64_t>(cell.type) * 251 + arity);
    for (size_t k = 0; k < arity; ++k)
        v = mix2(v, ins[k]);
    return v;
}

/** Fold a multiset of hashes order-independently (sort, then mix). */
uint64_t
foldSorted(uint64_t acc, std::vector<uint64_t> items)
{
    std::sort(items.begin(), items.end());
    acc = mix2(acc, items.size());
    for (uint64_t v : items)
        acc = mix2(acc, v);
    return acc;
}

} // namespace

uint64_t
canonicalNetlistHash(const Netlist &nl)
{
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();
    auto dffs = nl.dffs();

    // Round-0 labels: local structure only.
    std::vector<uint64_t> h(num_nets, mix64(kTagFree));
    h[nl.zero()] = mix64(kTagRail0);
    h[nl.one()] = mix64(kTagRail1);
    for (const auto &[name, net] : nl.primaryInputs())
        h[net] = mix2(kTagInput, fnv64(name));
    for (const auto &dff : dffs)
        h[dff.q] = mix2(kTagDff, dff.init ? 1 : 0);

    std::vector<size_t> order;
    bool acyclic = combTopo(nl, order);
    unsigned rounds = acyclic ? kRounds : kCyclicRounds;

    for (unsigned r = 0; r < rounds; ++r) {
        if (acyclic) {
            // Gauss-Seidel within the round: every comb fanin is
            // already refreshed when a cell rehashes, so one round
            // digests the full combinational depth regardless of
            // which valid topological order was found.
            for (size_t i : order)
                h[cells[i].output] = hashCellFrom(cells[i], h);
        } else {
            // Cyclic fallback: order-independent Jacobi update.
            std::vector<uint64_t> next = h;
            for (size_t i = 0; i < cells.size(); ++i)
                if (!isSequential(cells[i].type) &&
                    cells[i].output < num_nets)
                    next[cells[i].output] =
                        hashCellFrom(cells[i], h);
            h = std::move(next);
        }
        // Register boundary: Q picks up its D cone's digest.
        std::vector<uint64_t> nextq(dffs.size());
        for (size_t i = 0; i < dffs.size(); ++i) {
            uint64_t d = dffs[i].d != kNoNet && dffs[i].d < num_nets
                ? h[dffs[i].d] : mix64(kTagFree);
            nextq[i] = mix2(mix2(kTagDff, dffs[i].init ? 1 : 0), d);
        }
        for (size_t i = 0; i < dffs.size(); ++i)
            h[dffs[i].q] = nextq[i];
    }

    // Final digest: sorted multisets only, so neither net numbering
    // nor cell insertion order can reach the result.
    uint64_t acc = mix2(kTagFinal, fnv64("flexi-canonical-v1"));

    std::vector<uint64_t> items;
    for (const auto &[name, net] : nl.primaryOutputs())
        items.push_back(mix2(fnv64(name), h[net]));
    acc = foldSorted(acc, std::move(items));

    items.clear();
    for (const auto &[name, net] : nl.primaryInputs())
        items.push_back(fnv64(name));
    acc = foldSorted(acc, std::move(items));

    items.clear();
    for (const auto &dff : dffs)
        items.push_back(h[dff.q]);
    acc = foldSorted(acc, std::move(items));

    items.clear();
    for (const auto &cell : cells)
        if (!isSequential(cell.type))
            items.push_back(
                mix2(static_cast<uint64_t>(cell.type),
                     h[cell.output]));
    acc = foldSorted(acc, std::move(items));

    return mix2(acc, cells.size());
}

std::string
canonicalNetlistHashHex(const Netlist &nl)
{
    return strfmt("%016llx",
                  static_cast<unsigned long long>(
                      canonicalNetlistHash(nl)));
}

} // namespace flexi
