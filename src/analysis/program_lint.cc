#include "program_lint.hh"

#include <array>
#include <deque>
#include <map>
#include <set>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "isa/disassembler.hh"
#include "isa/encoding.hh"
#include "sim/mmu.hh"

namespace flexi
{

namespace
{

/** Unknown constant. */
constexpr int16_t kTopVal = -1;

/** Abstract register/memory value: definitely-written + constant. */
struct AVal
{
    bool written = false;   ///< written on every path to here
    int16_t val = 0;        ///< power-on state is all-zero

    bool operator==(const AVal &other) const = default;
};

AVal
joinVal(const AVal &a, const AVal &b)
{
    return {a.written && b.written,
            a.val == b.val ? a.val : kTopVal};
}

AVal
top()
{
    return {true, kTopVal};
}

AVal
constant(unsigned v)
{
    return {true, static_cast<int16_t>(v)};
}

/** Pending MMU page: none, a page number, or statically unknown. */
constexpr int16_t kNoPend = -1;
constexpr int16_t kTopPend = -2;

/** MMU escape-FST progress (mirrors Mmu::State). */
enum : uint8_t { kEscIdle = 0, kEscGot0 = 1, kEscGot1 = 2 };

/** Return-register discipline. */
enum : uint8_t { kRetNo = 0, kRetYes = 1, kRetMaybe = 2 };

/** The dataflow state at one program point. */
struct AbsState
{
    AVal acc;
    AVal carry;               ///< val in {0, 1}
    AVal flags;               ///< LoadStore4 branch-condition source
    AVal ret;                 ///< return register (page-local addr)
    std::array<AVal, 8> mem;  ///< data memory / register file
    uint8_t esc = kEscIdle;
    int16_t pend = kNoPend;
    uint8_t retLive = kRetNo;

    bool operator==(const AbsState &other) const = default;
};

AbsState
joinState(const AbsState &a, const AbsState &b)
{
    AbsState out;
    out.acc = joinVal(a.acc, b.acc);
    out.carry = joinVal(a.carry, b.carry);
    out.flags = joinVal(a.flags, b.flags);
    out.ret = joinVal(a.ret, b.ret);
    for (size_t i = 0; i < out.mem.size(); ++i)
        out.mem[i] = joinVal(a.mem[i], b.mem[i]);
    // Paths meeting mid-escape: assume ordinary data does not form
    // the triple (the paper's MMU contract), so disagreement resets
    // the modeled FST.
    out.esc = a.esc == b.esc ? a.esc : uint8_t{kEscIdle};
    out.pend = a.pend == b.pend ? a.pend : kTopPend;
    out.retLive = a.retLive == b.retLive ? a.retLive
                                         : uint8_t{kRetMaybe};
    return out;
}

class ProgramLinter
{
  public:
    /** Reachable points with their decodes (run() must have run). */
    std::vector<ProgramFactPoint> reachablePoints() const
    {
        std::vector<ProgramFactPoint> pts;
        for (const auto &[k, st] : in_) {
            auto it = decoded_.find(k);
            if (it == decoded_.end())
                continue;
            pts.push_back({k >> kPcBits, k & (kPageSize - 1),
                           it->second.inst, it->second.bytes});
        }
        return pts;
    }

    explicit ProgramLinter(const Program &prog)
        : prog_(prog), isa_(prog.isa()),
          dataWidth_(isaDataWidth(isa_)),
          dataMask_(static_cast<uint8_t>((1u << dataWidth_) - 1u)),
          memWords_(isaMemWords(isa_))
    {}

    LintReport run();

  private:
    static unsigned key(unsigned page, unsigned addr)
    {
        return (page << kPcBits) | addr;
    }

    /** Page fill in PC units (bytes; words for LoadStore4). */
    unsigned fill(unsigned page) const
    {
        return prog_.pageFill(page);
    }

    DecodeResult decode(unsigned page, unsigned addr);
    unsigned unitSpan(const DecodeResult &dec) const
    {
        return isa_ == IsaKind::LoadStore4 ? 1 : dec.bytes;
    }

    void diag(Severity severity, const std::string &rule,
              unsigned page, unsigned addr,
              const std::string &message);

    AVal readMem(AbsState &st, unsigned addr, unsigned page,
                 unsigned pc, const char *what);
    void writeMem(AbsState &st, unsigned addr, const AVal &v,
                  unsigned page, unsigned pc);
    AVal readAcc(AbsState &st, unsigned page, unsigned pc,
                 const Instruction &inst);
    AVal operandVal(AbsState &st, const Instruction &inst,
                    unsigned page, unsigned pc);
    void execute(AbsState &st, const Instruction &inst,
                 unsigned page, unsigned pc);

    /** Post a CFG edge; validates the target and joins the state. */
    void edge(unsigned from_page, unsigned from_addr, unsigned page,
              unsigned addr, const AbsState &st, bool is_branch);

    /** Taken-transfer edge: applies any pending MMU page switch. */
    void takenEdge(unsigned page, unsigned addr, unsigned target,
                   AbsState st, bool allow_halt);

    void checkMisaligned();
    void checkUnreachable();

    const Program &prog_;
    IsaKind isa_;
    unsigned dataWidth_;
    uint8_t dataMask_;
    unsigned memWords_;

    LintReport rep_;
    std::map<unsigned, AbsState> in_;
    std::map<unsigned, DecodeResult> decoded_;
    std::deque<unsigned> work_;
    std::set<std::pair<std::string, unsigned>> posted_;
};

DecodeResult
ProgramLinter::decode(unsigned page, unsigned addr)
{
    auto it = decoded_.find(key(page, addr));
    if (it != decoded_.end())
        return it->second;
    static const std::vector<uint8_t> empty;
    const std::vector<uint8_t> &image =
        page < prog_.numPages() ? prog_.page(page) : empty;
    DecodeResult dec = decodeAt(isa_, image, addr);
    decoded_.emplace(key(page, addr), dec);
    return dec;
}

void
ProgramLinter::diag(Severity severity, const std::string &rule,
                    unsigned page, unsigned addr,
                    const std::string &message)
{
    if (!posted_.emplace(rule, key(page, addr)).second)
        return;
    rep_.add(programFinding(severity, rule, page, addr, message));
}

AVal
ProgramLinter::readMem(AbsState &st, unsigned addr, unsigned page,
                       unsigned pc, const char *what)
{
    addr %= memWords_;
    if (addr == kInputPortAddr || addr == kOutputPortAddr)
        return top();   // input bus / output latch: always driven
    AVal v = st.mem[addr];
    if (!v.written) {
        diag(Severity::Warning, "uninit-mem-read", page, pc,
             strfmt("%s reads r%u before any store (relies on the "
                    "power-on value)", what, addr));
        // The flexible parts make no power-on guarantee, so never
        // let the zero-reset simulator value drive branch pruning.
        v.val = kTopVal;
    }
    return v;
}

void
ProgramLinter::writeMem(AbsState &st, unsigned addr, const AVal &v,
                        unsigned page, unsigned pc)
{
    addr %= memWords_;
    if (addr == kInputPortAddr) {
        diag(Severity::Error, "write-to-input-port", page, pc,
             strfmt("write to the read-only input address r%u is a "
                    "silent no-op", kInputPortAddr));
        return;
    }
    if (addr == kOutputPortAddr) {
        // Advance the modeled MMU escape FST (Mmu::onOutput).
        if (v.val == kTopVal) {
            if (st.esc == kEscGot1)
                st.pend = kTopPend;   // 0xA, 0x5, <unknown page>
            st.esc = kEscIdle;
            return;
        }
        auto b = static_cast<uint8_t>(v.val);
        switch (st.esc) {
          case kEscIdle:
            st.esc = b == kMmuEscape0 ? kEscGot0 : kEscIdle;
            break;
          case kEscGot0:
            st.esc = b == kMmuEscape1 ? kEscGot1
                   : b == kMmuEscape0 ? kEscGot0 : kEscIdle;
            break;
          case kEscGot1:
            st.pend = static_cast<int16_t>(b & 0xF);
            st.esc = kEscIdle;
            break;
        }
        return;
    }
    st.mem[addr] = {true, v.val};
}

AVal
ProgramLinter::readAcc(AbsState &st, unsigned page, unsigned pc,
                       const Instruction &inst)
{
    AVal v = st.acc;
    if (!v.written) {
        diag(Severity::Warning, "uninit-acc-read", page, pc,
             strfmt("'%s' reads ACC before any write (relies on the "
                    "power-on value)",
                    disassemble(isa_, inst).c_str()));
        v.val = kTopVal;   // no power-on guarantee on real parts
    }
    return v;
}

AVal
ProgramLinter::operandVal(AbsState &st, const Instruction &inst,
                          unsigned page, unsigned pc)
{
    if (inst.mode == Mode::Mem)
        return readMem(st, inst.operand, page, pc,
                       disassemble(isa_, inst).c_str());
    if (inst.mode == Mode::Imm) {
        uint8_t raw = inst.operand;
        switch (isa_) {
          case IsaKind::FlexiCore4:
            return constant(raw & 0x0F);
          case IsaKind::FlexiCore8:
            if (inst.op == Op::Ldb)
                return constant(raw);
            return constant(
                static_cast<uint8_t>(signExtend(raw, 4)) & 0xFF);
          case IsaKind::ExtAcc4:
            if (inst.op == Op::Add || inst.op == Op::Adc)
                return constant(
                    static_cast<uint8_t>(signExtend(raw, 3)) &
                    dataMask_);
            return constant(raw & 0x07);
          case IsaKind::LoadStore4:
            return constant(raw & dataMask_);
        }
    }
    return constant(0);
}

void
ProgramLinter::execute(AbsState &st, const Instruction &inst,
                       unsigned page, unsigned pc)
{
    bool load_store = isa_ == IsaKind::LoadStore4;
    unsigned w = dataWidth_;
    uint8_t m = dataMask_;

    auto readFirst = [&]() -> AVal {
        if (load_store)
            return readMem(st, inst.rd, page, pc,
                           disassemble(isa_, inst).c_str());
        return readAcc(st, page, pc, inst);
    };
    auto writeResult = [&](const AVal &v) {
        AVal masked = v;
        if (masked.val != kTopVal)
            masked.val &= m;
        if (load_store) {
            writeMem(st, inst.rd, masked, page, pc);
            st.flags = masked;
        } else {
            st.acc = masked;
        }
    };
    // cin: 0 / 1 / kTopVal.
    auto addLike = [&](const AVal &b, int16_t cin, bool invert) {
        AVal a = readFirst();
        if (a.val == kTopVal || b.val == kTopVal ||
            cin == kTopVal) {
            writeResult(top());
            st.carry = top();
            return;
        }
        unsigned bb = invert
            ? static_cast<uint8_t>(~b.val) & m
            : static_cast<unsigned>(b.val) & m;
        unsigned sum = (static_cast<unsigned>(a.val) & m) + bb +
                       static_cast<unsigned>(cin);
        st.carry = constant((sum >> w) & 1u);
        writeResult(constant(sum));
    };
    // dom: operand value that makes the first input irrelevant (0
    // for NAND/AND, all-ones for OR; -2 = none). When it hits, skip
    // the read entirely -- `nandi 0` is the canonical "ignore ACC"
    // idiom and must not draw an uninit-acc-read warning.
    auto bitwise = [&](auto fn, int16_t dom) {
        AVal b = operandVal(st, inst, page, pc);
        AVal a = b.val == dom ? constant(0) : readFirst();
        writeResult(fn(a, b));
    };

    switch (inst.op) {
      case Op::Add:
        addLike(operandVal(st, inst, page, pc), 0, false);
        break;
      case Op::Adc:
        addLike(operandVal(st, inst, page, pc),
                st.carry.written ? st.carry.val : kTopVal, false);
        break;
      case Op::Sub:
        addLike(operandVal(st, inst, page, pc), 1, true);
        break;
      case Op::Swb:
        addLike(operandVal(st, inst, page, pc),
                st.carry.written ? st.carry.val : kTopVal, true);
        break;
      case Op::Nand:
        bitwise([&](AVal a, AVal b) -> AVal {
            // Dominance: x NAND 0 is all-ones whatever x is — the
            // ubr idiom (`nandi 0` then br) depends on this fold.
            if (a.val == 0 || b.val == 0)
                return constant(m);
            if (a.val == kTopVal || b.val == kTopVal)
                return top();
            return constant(~(a.val & b.val) & m);
        }, 0);
        break;
      case Op::And:
        bitwise([&](AVal a, AVal b) -> AVal {
            if (a.val == 0 || b.val == 0)
                return constant(0);
            if (a.val == kTopVal || b.val == kTopVal)
                return top();
            return constant(a.val & b.val);
        }, 0);
        break;
      case Op::Or:
        bitwise([&](AVal a, AVal b) -> AVal {
            if (a.val == m || b.val == m)
                return constant(m);
            if (a.val == kTopVal || b.val == kTopVal)
                return top();
            return constant(a.val | b.val);
        }, m);
        break;
      case Op::Xor:
        bitwise([&](AVal a, AVal b) -> AVal {
            if (a.val == kTopVal || b.val == kTopVal)
                return top();
            return constant(a.val ^ b.val);
        }, -2);
        break;
      case Op::Neg: {
        AVal a = readFirst();
        if (a.val == kTopVal) {
            writeResult(top());
            st.carry = top();
        } else {
            st.carry = constant(a.val == 0);
            writeResult(constant(
                static_cast<unsigned>(-a.val) & m));
        }
        break;
      }
      case Op::Asr:
      case Op::Lsr: {
        AVal a = readFirst();
        AVal amt = inst.mode == Mode::None
            ? constant(1) : operandVal(st, inst, page, pc);
        if (a.val == kTopVal || amt.val == kTopVal) {
            writeResult(top());
            st.carry = top();
            break;
        }
        unsigned amount = static_cast<unsigned>(amt.val) & 0x7;
        bool sign = bit(static_cast<unsigned>(a.val), w - 1);
        unsigned v = static_cast<unsigned>(a.val) & m;
        AVal cy = st.carry;
        for (unsigned i = 0; i < amount; ++i) {
            cy = constant(v & 1u);
            v >>= 1;
            if (inst.op == Op::Asr && sign)
                v |= 1u << (w - 1);
        }
        st.carry = cy;
        writeResult(constant(v));
        break;
      }
      case Op::Li:
        writeResult(operandVal(st, inst, page, pc));
        break;
      case Op::Ldb:
        st.acc = constant(inst.operand);
        break;
      case Op::Load:
        st.acc = readMem(st, inst.operand, page, pc,
                         disassemble(isa_, inst).c_str());
        if (st.acc.val != kTopVal)
            st.acc.val &= m;
        st.acc.written = true;
        break;
      case Op::Store:
        writeMem(st, inst.operand, readAcc(st, page, pc, inst),
                 page, pc);
        break;
      case Op::Xch: {
        AVal v = readMem(st, inst.operand, page, pc,
                         disassemble(isa_, inst).c_str());
        writeMem(st, inst.operand, readAcc(st, page, pc, inst),
                 page, pc);
        if (v.val != kTopVal)
            v.val &= m;
        v.written = true;
        st.acc = v;
        break;
      }
      case Op::Mov:
        writeResult(operandVal(st, inst, page, pc));
        break;
      case Op::Invalid:
        diag(Severity::Warning, "invalid-opcode", page, pc,
             "reserved encoding on an execution path (architected "
             "no-op)");
        break;
      case Op::Br:
      case Op::Call:
      case Op::Ret:
        panic("program lint: control flow handled by caller");
    }
}

void
ProgramLinter::edge(unsigned from_page, unsigned from_addr,
                    unsigned page, unsigned addr, const AbsState &st,
                    bool is_branch)
{
    if (addr >= fill(page)) {
        diag(Severity::Error,
             is_branch ? "target-beyond-code" : "fall-off-code",
             from_page, from_addr,
             strfmt("%s addr %u on page %u, past the %u assembled "
                    "%s (the idle bus reads as zeros there)",
                    is_branch ? "control transfer to" : "falls into",
                    addr, page, fill(page),
                    isa_ == IsaKind::LoadStore4 ? "words" : "bytes"));
        return;
    }
    unsigned k = key(page, addr);
    auto it = in_.find(k);
    if (it == in_.end()) {
        in_.emplace(k, st);
        work_.push_back(k);
        return;
    }
    AbsState joined = joinState(it->second, st);
    if (!(joined == it->second)) {
        it->second = joined;
        work_.push_back(k);
    }
}

void
ProgramLinter::takenEdge(unsigned page, unsigned addr,
                         unsigned target, AbsState st,
                         bool allow_halt)
{
    unsigned dest_page = page;
    if (st.pend == kTopPend) {
        diag(Severity::Warning, "page-indeterminate", page, addr,
             "taken branch with a statically unknown pending MMU "
             "page; assuming no page switch");
        st.pend = kNoPend;
    } else if (st.pend != kNoPend) {
        dest_page = static_cast<unsigned>(st.pend);
        st.pend = kNoPend;
    } else if (allow_halt && target == addr) {
        // Taken branch to itself with no pending switch: the halt
        // idiom. Terminal — no successor.
        return;
    }
    edge(page, addr, dest_page, target & (kPageSize - 1), st, true);
}

void
ProgramLinter::checkMisaligned()
{
    for (const auto &[k, dec] : decoded_) {
        if (!in_.count(k))
            continue;
        unsigned page = k >> kPcBits;
        unsigned addr = k & (kPageSize - 1);
        for (unsigned u = 1; u < unitSpan(dec); ++u) {
            unsigned mid = key(page, addr + u);
            if (in_.count(mid))
                diag(Severity::Error, "misaligned-target", page,
                     addr + u,
                     strfmt("control transfer lands inside the "
                            "%u-byte instruction at addr %u ('%s')",
                            dec.bytes, addr,
                            disassemble(isa_, dec.inst).c_str()));
        }
    }
}

void
ProgramLinter::checkUnreachable()
{
    for (unsigned page = 0; page < prog_.numPages(); ++page) {
        std::vector<bool> covered(fill(page), false);
        for (const auto &[k, dec] : decoded_) {
            if (!in_.count(k) || (k >> kPcBits) != page)
                continue;
            unsigned addr = k & (kPageSize - 1);
            for (unsigned u = 0; u < unitSpan(dec); ++u)
                if (addr + u < covered.size())
                    covered[addr + u] = true;
        }
        for (unsigned a = 0; a < covered.size();) {
            if (covered[a]) {
                ++a;
                continue;
            }
            unsigned b = a;
            while (b < covered.size() && !covered[b])
                ++b;
            diag(Severity::Warning, "unreachable-code", page, a,
                 strfmt("addrs %u..%u (%u %s) are never reached "
                        "from the entry point", a, b - 1, b - a,
                        isa_ == IsaKind::LoadStore4 ? "words"
                                                    : "bytes"));
            a = b;
        }
    }
}

LintReport
ProgramLinter::run()
{
    if (prog_.numPages() == 0 || fill(0) == 0) {
        rep_.add(programFinding(Severity::Warning, "empty-program",
                                0, 0,
                                "program has no content on page 0"));
        return rep_;
    }

    in_.emplace(key(0, 0), AbsState{});
    work_.push_back(key(0, 0));

    while (!work_.empty()) {
        unsigned k = work_.front();
        work_.pop_front();
        unsigned page = k >> kPcBits;
        unsigned addr = k & (kPageSize - 1);
        AbsState st = in_.at(k);

        DecodeResult dec = decode(page, addr);
        const Instruction &inst = dec.inst;

        if (addr + unitSpan(dec) > kPageSize) {
            diag(Severity::Error, "fall-off-code", page, addr,
                 "two-byte instruction truncated at the end of the "
                 "128-entry page");
            continue;
        }

        unsigned next = isa_ == IsaKind::LoadStore4
            ? (addr + 1) & (kPageSize - 1)
            : (addr + dec.bytes) & (kPageSize - 1);

        switch (inst.op) {
          case Op::Br: {
            AVal test = isa_ == IsaKind::LoadStore4
                ? st.flags : readAcc(st, page, addr, inst);
            if (!test.written)
                test.val = kTopVal;   // power-on flags/ACC unknown
            // Resolve the condition when the tested value (or the
            // mask itself) decides it statically.
            int taken = -1;   // -1 unknown, 0 never, 1 always
            if ((inst.cond & kCondAlways) == kCondAlways) {
                taken = 1;
            } else if (inst.cond == 0) {
                taken = 0;   // all-zero mask never fires
            } else if (test.val != kTopVal) {
                auto v = static_cast<uint8_t>(test.val);
                bool n = bit(v, dataWidth_ - 1);
                bool z = (v & dataMask_) == 0;
                bool p = !n && !z;
                taken = (((inst.cond & kCondN) && n) ||
                         ((inst.cond & kCondZ) && z) ||
                         ((inst.cond & kCondP) && p)) ? 1 : 0;
            }
            if (taken != 0)
                takenEdge(page, addr, inst.target, st, taken == 1);
            if (taken != 1)
                edge(page, addr, page, next, st, false);
            break;
          }
          case Op::Call: {
            if (st.retLive != kRetNo)
                diag(Severity::Warning, "nested-call", page, addr,
                     "call while the single return register is "
                     "already live clobbers the outer return "
                     "address");
            AbsState succ = st;
            succ.ret = constant(next);
            succ.retLive = kRetYes;
            takenEdge(page, addr, inst.target, succ, false);
            break;
          }
          case Op::Ret: {
            if (st.retLive == kRetNo)
                diag(Severity::Error, "ret-without-call", page, addr,
                     "ret executes with no live call: jumps to the "
                     "power-on return register");
            else if (st.retLive == kRetMaybe)
                diag(Severity::Warning, "ret-without-call", page,
                     addr,
                     "ret may execute without a prior call on some "
                     "paths");
            AbsState succ = st;
            succ.retLive = kRetNo;
            if (st.retLive == kRetNo) {
                // Already an error above; no meaningful successor.
            } else if (st.ret.val == kTopVal) {
                diag(Severity::Note, "ret-target-unknown", page,
                     addr,
                     "return target is statically unknown; paths "
                     "beyond this ret are not followed");
            } else {
                takenEdge(page, addr,
                          static_cast<unsigned>(st.ret.val), succ,
                          false);
            }
            break;
          }
          default:
            execute(st, inst, page, addr);
            edge(page, addr, page, next, st, false);
            break;
        }
    }

    checkMisaligned();
    checkUnreachable();
    return rep_;
}

} // namespace

LintReport
lintProgram(const Program &prog)
{
    return ProgramLinter(prog).run();
}

ProgramFacts
programFacts(const Program &prog)
{
    ProgramLinter linter(prog);
    ProgramFacts facts;
    facts.isa = prog.isa();
    facts.report = linter.run();
    facts.points = linter.reachablePoints();
    return facts;
}

} // namespace flexi
