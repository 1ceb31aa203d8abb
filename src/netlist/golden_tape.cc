#include "golden_tape.hh"

#include <algorithm>
#include <memory>

#include "isa/encoding.hh"
#include "sim/core_sim.hh"
#include "sim/mmu.hh"

namespace flexi
{

bool
readsInput(const Instruction &inst)
{
    return inst.mode == Mode::Mem && inst.op != Op::Store &&
           inst.operand == kInputPortAddr;
}

bool
wideFetch(IsaKind isa)
{
    return isa == IsaKind::ExtAcc4 || isa == IsaKind::LoadStore4;
}

FetchTable
fetchTable(IsaKind isa, const std::vector<uint8_t> &image)
{
    auto byte = [&](unsigned addr) -> unsigned {
        return addr < image.size() ? image[addr] : 0;
    };
    bool wide = wideFetch(isa);
    FetchTable table{};
    for (unsigned pc = 0; pc < kPageSize; ++pc) {
        unsigned base = isa == IsaKind::LoadStore4 ? pc * 2 : pc;
        table[pc] = static_cast<uint16_t>(
            wide ? byte(base) | byte(base + 1) << 8 : byte(base));
    }
    return table;
}

Pads
padsOf(const Netlist &die, IsaKind isa)
{
    return {die.outputBus("pc", 7),
            die.inputBus("instr", wideFetch(isa) ? 16 : 8),
            die.inputBus("iport", isaDataWidth(isa)),
            die.outputBus("oport", isaDataWidth(isa))};
}

uint8_t
crc8(uint8_t crc, uint8_t byte)
{
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit)
        crc = crc & 0x80 ? static_cast<uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<uint8_t>(crc << 1);
    return crc;
}

GoldenTape::GoldenTape(IsaKind isa, const Program &prog,
                       const std::vector<uint8_t> &inputs,
                       uint64_t maxInstructions, uint64_t maxCycles,
                       size_t targetOutputs)
    : isa_(isa)
{
    HeldInputEnv env;
    std::unique_ptr<PagedEnvironment> paged;
    if (prog.numPages() > 1)
        paged = std::make_unique<PagedEnvironment>(env);
    TimingConfig tcfg;
    tcfg.isa = isa;
    CoreSim golden(tcfg, prog,
                   paged ? static_cast<Environment &>(*paged)
                         : static_cast<Environment &>(env));
    bool wide = wideFetch(isa);
    uint8_t inputMask =
        static_cast<uint8_t>((1u << isaDataWidth(isa)) - 1u);
    size_t inputIdx = 0;
    // A golden-tracking die's MMU sees golden's exact output values,
    // so one mirror MMU fed them gives its page.
    Mmu mmu;
    unsigned page = 0;
    uint8_t crc = 0;
    uint64_t elapsed = 0;

    // Every instruction takes at least a cycle, so both budgets bound
    // the tape. A small bound (a wafer test's 1,500 instructions) is
    // reserved once, so the tape leaves no regrown buffers behind. A
    // large one is usually a cap the run halts far short of, and
    // reserving all of it costs a fleet epoch ~4% peak RSS, so past
    // kPointsReserved the tape grows as needed.
    constexpr uint64_t kPointsReserved = 1 << 12;
    points_.reserve(
        std::min({maxInstructions, maxCycles, kPointsReserved}) + 1);
    while (true) {
        Point p;
        p.pc = golden.pc();
        p.latch = golden.outputLatch();
        p.crc = crc;
        p.outputs = static_cast<uint32_t>(env.outputs.size());
        p.elapsed = elapsed;
        p.done = golden.halted() ||
                 (targetOutputs && env.outputs.size() >= targetOutputs);
        points_.push_back(p);
        if (p.done || points_.size() > maxInstructions ||
            elapsed >= maxCycles)
            break;

        // Decode at the golden PC (and page) to learn whether this
        // instruction samples the input bus; every die then sees the
        // same held value.
        Point &k = points_.back();
        DecodeResult dec =
            decodeAt(isa, prog.page(golden.page()), golden.pc());
        if (readsInput(dec.inst) && inputIdx < inputs.size())
            env.held = inputs[inputIdx++] & inputMask;
        uint64_t prevIo = golden.stats().ioWrites;
        uint64_t prevTb = golden.stats().takenBranches;
        size_t prevOut = env.outputs.size();
        golden.step();

        k.page = page;
        k.cycles = static_cast<uint8_t>(wide ? 1 : dec.bytes);
        k.held = env.held;
        k.ioWrite = golden.stats().ioWrites != prevIo;
        k.takenBranch = golden.stats().takenBranches != prevTb;
        for (size_t i = prevOut; i < env.outputs.size(); ++i)
            crc = crc8(crc, env.outputs[i]);
        elapsed += k.cycles;
        if (paged) {
            if (k.ioWrite)
                (void)mmu.onOutput(golden.outputLatch());
            if (k.takenBranch) {
                int next = mmu.takePendingPage();
                if (next >= 0)
                    page = static_cast<unsigned>(next);
            }
        }
    }
    outputs_ = std::move(env.outputs);

    fetch_.resize(prog.numPages());
    fetchBytes_.resize(prog.numPages());
    for (unsigned pg = 0; pg < prog.numPages(); ++pg) {
        fetch_[pg] = fetchTable(isa, prog.page(pg));
        for (unsigned pc = 0; pc < kPcSpace; ++pc)
            fetchBytes_[pg][pc] = static_cast<uint8_t>(fetch_[pg][pc]);
    }
}

void
GoldenTape::driveFetch(LaneGroup &group, const Pads &pads,
                       unsigned page) const
{
    if (!wideFetch(isa_)) {
        // The narrow cores fetch one byte: LaneGroup's fused indexed
        // drive, which never leaves the bit domain.
        static const std::array<uint8_t, kPcSpace> kUnmapped{};
        group.driveBusFromTable(pads.pc, pads.instr,
                                page < fetchBytes_.size()
                                    ? fetchBytes_[page].data()
                                    : kUnmapped.data());
        return;
    }
    std::array<uint8_t, LaneGroup::kMaxLanes> pc;
    std::array<uint32_t, LaneGroup::kMaxLanes> instr;
    const FetchTable &table = fetch(page);
    group.gatherBusBytes(pads.pc, pc.data());
    for (unsigned lane = 0; lane < group.lanes(); ++lane)
        instr[lane] = table[pc[lane] % kPcSpace];
    group.setBusLanes(pads.instr, instr.data());
}

} // namespace flexi
