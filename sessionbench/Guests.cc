#include "Guests.hh"

#include <algorithm>

#include "workloads/AnomalyCorpus.hh"
#include "workloads/Exploits.hh"
#include "workloads/GuestLib.hh"
#include "workloads/Macro.hh"
#include "workloads/Micro.hh"
#include "workloads/Trusted.hh"

namespace sessionbench
{

using hth::os::Kernel;
using hth::secpert::Severity;
using hth::workloads::Gasm;
using hth::workloads::Scenario;
using hth::vm::Reg;
namespace wl = hth::workloads;

namespace
{

/** Seeded lowercase text: stdin, file and socket contents. */
std::string
letters(Rng &rng, size_t n)
{
    std::string out(n, 'a');
    for (char &c : out)
        c = (char)('a' + rng.below(26));
    return out;
}

Severity
severityOf(int level)
{
    return level >= 3 ? Severity::High
                      : level == 2 ? Severity::Medium : Severity::Low;
}

Expected
exactly(int level)
{
    Expected e;
    e.malicious = level > 0;
    e.severity = severityOf(std::max(level, 1));
    return e;
}

/** Guest instructions a long_guest session retires: spread evenly
 * from MIN to 3 x MIN over the guests of a round, below the default
 * 20M-tick budget. A wide, even spread keeps the median session from
 * jumping between two clusters when the host slows every session by
 * the same factor. */
constexpr int GUEST_INSNS_MIN = 6000000;

/** Operations and process creations per event_storm guest. */
constexpr int STORM_OPS = 80;
constexpr int STORM_FORKS = 2;

/** argv[0..4] of every generated guest. */
const char *const USER_IN = "/home/user/in.txt";
const char *const USER_OUT = "/home/user/out.txt";
const char *const USER_PEER = "peer.example.com:8000";
const char *const TRUSTED_BIN = "/bin/ls";

/** Guest world shared by the generated guests. */
void
addCommonWorld(Kernel &k, const std::string &peer_payload)
{
    k.vfs().addBinary(TRUSTED_BIN, wl::makeLsBinary());
    k.vfs().addFile(".", "in.txt\nout.txt\n");
    k.vfs().addFile(USER_IN, "user-supplied-file-contents\n");
    k.vfs().addFile("/etc/storm/src.conf", "hardcoded-config-contents\n");
    k.net().addHost("peer.example.com");
    k.net().addHost("sink.example.com");
    hth::os::RemotePeer peer;
    peer.name = USER_PEER;
    peer.onConnect = [peer_payload](hth::os::RemoteConn &c) {
        c.send(peer_payload);
    };
    k.net().addRemoteServer(USER_PEER, peer);
    hth::os::RemotePeer sink;
    sink.name = "sink.example.com:7000";
    k.net().addRemoteServer("sink.example.com:7000", sink);
}

/** Emit `passes` sweeps over the @p len bytes at @p buf: each byte
 * becomes itself plus the previous result, so a tainted buffer unites
 * tags on every byte and an untainted one stays untagged (EDX starts
 * from the xor zeroing idiom, which clears taint). */
void
emitSweeps(Gasm &a, const std::string &buf, int len, int passes,
           const std::string &stem)
{
    a.movi(Reg::Ecx, passes);
    a.label(stem + "_pass");
    a.xor_(Reg::Edx, Reg::Edx);
    a.leaSym(Reg::Esi, buf);
    a.lea(Reg::Edi, Reg::Esi, len);
    a.label(stem + "_byte");
    a.loadb(Reg::Eax, Reg::Esi, 0);
    a.add(Reg::Eax, Reg::Edx);
    a.storeb(Reg::Esi, 0, Reg::Eax);
    a.mov(Reg::Edx, Reg::Eax);
    a.addi(Reg::Esi, 1);
    a.cmp(Reg::Esi, Reg::Edi);
    a.jl(stem + "_byte");
    a.addi(Reg::Ecx, -1);
    a.cmpi(Reg::Ecx, 0);
    a.jnz(stem + "_pass");
}

/** EAX = argv[i], from the pointer main saved in argv_slot. */
void
argvTo(Gasm &a, int i)
{
    a.leaSym(Reg::Edi, "argv_slot");
    a.load(Reg::Ebx, Reg::Edi, 0);
    a.loadArgv(i);
}

} // namespace

std::vector<SessionSpec>
corpusSessions(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Scenario> all;
    for (auto &&list :
         {wl::executionFlowScenarios(), wl::resourceAbuseScenarios(),
          wl::infoFlowScenarios(), wl::macroScenarios(),
          wl::trustedProgramScenarios(), wl::exploitScenarios(),
          wl::anomalyScenarios()})
        for (const Scenario &s : list)
            all.push_back(s);
    rng.shuffle(all);

    std::vector<SessionSpec> out;
    for (Scenario &s : all) {
        if (s.reseed)
            s.reseed(s, 1 + rng.below(1u << 16));
        SessionSpec spec;
        spec.id = s.id;
        spec.disableTaint = s.disableTaint;
        spec.setup = s.setup;
        spec.path = s.path;
        spec.argv = s.argv;
        spec.env = s.env;
        spec.stdinData = s.stdinData;
        spec.expect.malicious = s.expectMalicious;
        spec.expect.severity = s.expectSeverity;
        spec.expect.atLeast = true;
        out.push_back(std::move(spec));
    }
    return out;
}

std::vector<SessionSpec>
longGuestSessions(uint64_t seed, int count)
{
    Rng rng(seed ^ 0x4c4f4e47ull);
    // Stratified shapes: guest g takes cell g of the grid of 3 buffer
    // sizes x 8 tainted shares, with the source, the split point, the
    // length and the output kind fixed by the cell too. Every seed
    // gets the same multiset of shapes; the seed orders them and draws
    // the input bytes, so per-round work does not move with the seed
    // while the sequence of sessions does.
    struct Shape
    {
        int len;
        int share;
        bool socket;
        int split;      //!< percent of untainted sweeps before input
        int output;
        int insns;
    };
    std::vector<Shape> shapes;
    for (int g = 0; g < count; ++g) {
        const int i = g % 3, j = (g / 3) % 8;
        shapes.push_back({1024 << i, 10 + 80 * j / 7, (i + j) % 2 == 1,
                          100 * ((5 * g) % count) / std::max(1, count - 1),
                          (g / 2) % 3,
                          GUEST_INSNS_MIN +
                              (int)((int64_t)2 * GUEST_INSNS_MIN *
                                    ((7 * g) % count) /
                                    std::max(1, count - 1))});
    }
    rng.shuffle(shapes);
    std::vector<SessionSpec> out;
    for (int g = 0; g < count; ++g) {
        const int len = shapes[(size_t)g].len;
        const int passes =
            std::max(2, shapes[(size_t)g].insns / (7 * len));
        const int tainted = passes * shapes[(size_t)g].share / 100;
        const int untainted = passes - tainted;
        const bool fromSocket = shapes[(size_t)g].socket;
        // 0: compute only, 1: tainted bytes to a user-named file,
        // 2: tainted bytes to a hard-coded file.
        const int output = shapes[(size_t)g].output;
        // Untainted sweeps run before the tainted input arrives and
        // after the fork.
        const int before = untainted * shapes[(size_t)g].split / 100;

        std::string path = "/opt/lg/guest" + std::to_string(g);
        Gasm a(path);
        a.dataSpace("ubuf", (uint32_t)len);
        a.dataSpace("tbuf", (uint32_t)len);
        a.dataSpace("argv_slot", 4);
        a.dataString("hard_out", "/var/cache/lg.bin");
        a.label("main");
        a.entry("main");
        a.leaSym(Reg::Edi, "argv_slot");
        a.store(Reg::Edi, 0, Reg::Ebx);

        if (before > 0)
            emitSweeps(a, "ubuf", len, before, "pre");
        if (tainted > 0) {
            if (fromSocket) {
                argvTo(a, 3);
                a.mov(Reg::Edx, Reg::Eax);
                a.sockCreate();
                a.mov(Reg::Ebp, Reg::Eax);
                a.sockConnect(Reg::Ebp, Reg::Edx);
                a.leaSym(Reg::Edx, "tbuf");
                a.sockRecv(Reg::Ebp, Reg::Edx, len);
                a.closeFd(Reg::Ebp);
            } else {
                a.readSym(0, "tbuf", len);
            }
            emitSweeps(a, "tbuf", len, tainted, "taint");
        }
        // A fork whose child sweeps the untainted buffer once.
        a.fork();
        a.cmpi(Reg::Eax, 0);
        a.jz("child");
        if (untainted - before > 0)
            emitSweeps(a, "ubuf", len, untainted - before, "post");
        a.writeSym(1, "ubuf", 32);
        if (output != 0 && tainted > 0) {
            if (output == 1) {
                argvTo(a, 2);
                a.creatReg(Reg::Eax);
            } else {
                a.creatSym("hard_out");
            }
            a.mov(Reg::Ebp, Reg::Eax);
            a.writeFd(Reg::Ebp, "tbuf", 32);
            a.closeFd(Reg::Ebp);
        }
        a.exit(0);
        a.label("child");
        emitSweeps(a, "ubuf", len, 1, "child");
        a.exit(0);
        auto image = a.build();

        int level = 0;
        if (output == 2 && tainted > 0)
            level = fromSocket ? 1 : 3;   // section 4.3 matrix

        std::string data = letters(rng, (size_t)len);
        SessionSpec s;
        s.id = "long_guest#" + std::to_string(g);
        s.path = path;
        s.argv = {path, USER_IN, USER_OUT, USER_PEER, TRUSTED_BIN};
        if (!fromSocket)
            s.stdinData = data;
        s.setup = [image, data, fromSocket](Kernel &k) {
            addCommonWorld(k, fromSocket ? data : "unused");
            k.vfs().addBinary(image->path, image);
        };
        s.expect = exactly(level);
        out.push_back(std::move(s));
    }
    return out;
}

namespace
{

/** Event-storm operations and the section 4.3 level each raises. */
enum class Op
{
    StdinToUserFile,    // USER_INPUT -> FILE(user)        0
    StdinToHardFile,    // USER_INPUT -> FILE(hard)        3
    HardFileToUserFile, // FILE(hard) -> FILE(user)        1
    UserFileToHardFile, // FILE(user) -> FILE(hard)        1
    UserFileToUserFile, // FILE(user) -> FILE(user)        0
    SocketRoundTrip,    // USER_INPUT -> SOCKET(user),
                        // SOCKET(user) -> FILE(user)      0
    BinaryToHardSocket, // BINARY -> SOCKET(hard)          1
    StdinToHardSocket,  // USER_INPUT -> SOCKET(hard)      3
    BinaryToUserFile,   // BINARY -> FILE(user)            0
    Fork,               // process creation                0
    ExecTrusted,        // fork + execve(argv[4])          0
};

int
levelOf(Op op)
{
    switch (op) {
      case Op::StdinToHardFile:
      case Op::StdinToHardSocket:
        return 3;
      case Op::HardFileToUserFile:
      case Op::UserFileToHardFile:
      case Op::BinaryToHardSocket:
        return 1;
      default:
        return 0;
    }
}

/** Copy 16 bytes from a file named by EAX into @p buf. */
void
readFileInto(Gasm &a, const std::string &buf)
{
    a.openReg(Reg::Eax, wl::GO_RDONLY);
    a.mov(Reg::Ebp, Reg::Eax);
    a.readFd(Reg::Ebp, buf, 16);
    a.closeFd(Reg::Ebp);
}

/** creat the file named by EAX and write 16 bytes of @p buf. */
void
writeFileFrom(Gasm &a, const std::string &buf)
{
    a.creatReg(Reg::Eax);
    a.mov(Reg::Ebp, Reg::Eax);
    a.writeFd(Reg::Ebp, buf, 16);
    a.closeFd(Reg::Ebp);
}

/** Connect a socket to the address at EAX; fd left in EBP. */
void
connectTo(Gasm &a)
{
    a.mov(Reg::Edx, Reg::Eax);
    a.sockCreate();
    a.mov(Reg::Ebp, Reg::Eax);
    a.sockConnect(Reg::Ebp, Reg::Edx);
}

void
sendFrom(Gasm &a, const std::string &buf)
{
    a.leaSym(Reg::Ecx, buf);
    a.movi(Reg::Edx, 16);
    a.sockSend(Reg::Ebp, Reg::Ecx, Reg::Edx);
}

} // namespace

std::vector<SessionSpec>
eventStormSessions(uint64_t seed, int count)
{
    Rng rng(seed ^ 0x53544f524dull);
    // Stratified menus: the same number of clean-only, up-to-Low and
    // anything-goes guests for every seed.
    std::vector<int> profiles;
    for (int g = 0; g < count; ++g)
        profiles.push_back(g % 3);
    rng.shuffle(profiles);
    std::vector<SessionSpec> out;
    for (int g = 0; g < count; ++g) {
        // Each guest runs one menu: clean-only, up to Low, or
        // everything, so verdicts span clean, Low and High.
        std::vector<Op> menu = {Op::StdinToUserFile,
                                Op::UserFileToUserFile,
                                Op::SocketRoundTrip,
                                Op::BinaryToUserFile};
        const int profile = profiles[(size_t)g];
        if (profile >= 1)
            menu.insert(menu.end(), {Op::HardFileToUserFile,
                                     Op::UserFileToHardFile,
                                     Op::BinaryToHardSocket});
        if (profile == 2)
            menu.insert(menu.end(),
                        {Op::StdinToHardFile, Op::StdinToHardSocket});

        // The menu is cycled, then shuffled: a guest's work depends
        // on its menu alone, so every seed gets the same per-round
        // work in a different order, with different names and bytes.
        std::vector<Op> ops;
        for (int i = 0; i < STORM_OPS; ++i)
            ops.push_back(menu[(size_t)i % menu.size()]);
        rng.shuffle(ops);
        // Three process creations per guest (two forks, one fork +
        // exec) keep the section 4.2 counters (more than 10, or more
        // than 6 per window) silent, so they never change the verdict.
        std::vector<Op> procs(STORM_FORKS, Op::Fork);
        procs.push_back(Op::ExecTrusted);
        for (Op op : procs)
            ops.insert(ops.begin() + rng.below((uint32_t)ops.size()), op);

        std::string path = "/opt/storm/guest" + std::to_string(g);
        Gasm a(path);
        for (const char *buf : {"buf_stdin", "buf_file", "buf_user",
                                "buf_sock"})
            a.dataSpace(buf, 32);
        a.dataSpace("argv_slot", 4);
        a.dataString("hard_src", "/etc/storm/src.conf");
        for (int k = 0; k < 4; ++k)
            a.dataString("hard_out" + std::to_string(k),
                         "/var/spool/storm" + std::to_string(k));
        a.dataString("hard_srv", "sink.example.com:7000");
        a.dataString("payload", "embedded-payload-bytes");
        a.label("main");
        a.entry("main");
        a.leaSym(Reg::Edi, "argv_slot");
        a.store(Reg::Edi, 0, Reg::Ebx);

        int level = 0;
        int stdinReads = 0;
        int n = 0;
        for (Op op : ops) {
            level = std::max(level, levelOf(op));
            const std::string hardOut =
                "hard_out" + std::to_string(rng.below(4));
            const std::string tag = std::to_string(n++);
            switch (op) {
              case Op::StdinToUserFile:
              case Op::StdinToHardFile:
                a.readSym(0, "buf_stdin", 16);
                ++stdinReads;
                if (op == Op::StdinToUserFile)
                    argvTo(a, 2);
                else
                    a.leaSym(Reg::Eax, hardOut);
                writeFileFrom(a, "buf_stdin");
                break;
              case Op::HardFileToUserFile:
                a.leaSym(Reg::Eax, "hard_src");
                readFileInto(a, "buf_file");
                argvTo(a, 2);
                writeFileFrom(a, "buf_file");
                break;
              case Op::UserFileToHardFile:
              case Op::UserFileToUserFile:
                argvTo(a, 1);
                readFileInto(a, "buf_user");
                if (op == Op::UserFileToUserFile)
                    argvTo(a, 2);
                else
                    a.leaSym(Reg::Eax, hardOut);
                writeFileFrom(a, "buf_user");
                break;
              case Op::SocketRoundTrip:
                argvTo(a, 3);
                connectTo(a);
                sendFrom(a, "buf_stdin");
                a.leaSym(Reg::Edx, "buf_sock");
                a.sockRecv(Reg::Ebp, Reg::Edx, 16);
                a.closeFd(Reg::Ebp);
                argvTo(a, 2);
                writeFileFrom(a, "buf_sock");
                break;
              case Op::BinaryToHardSocket:
              case Op::StdinToHardSocket:
                if (op == Op::StdinToHardSocket) {
                    a.readSym(0, "buf_stdin", 16);
                    ++stdinReads;
                }
                a.leaSym(Reg::Eax, "hard_srv");
                connectTo(a);
                sendFrom(a, op == Op::StdinToHardSocket ? "buf_stdin"
                                                        : "payload");
                a.closeFd(Reg::Ebp);
                break;
              case Op::BinaryToUserFile:
                argvTo(a, 2);
                writeFileFrom(a, "payload");
                break;
              case Op::Fork:
              case Op::ExecTrusted:
                a.fork();
                a.cmpi(Reg::Eax, 0);
                a.jnz("parent" + tag);
                if (op == Op::ExecTrusted) {
                    argvTo(a, 4);
                    a.execveReg(Reg::Eax);
                }
                a.exit(0);
                a.label("parent" + tag);
                break;
            }
        }
        a.exit(0);
        auto image = a.build();

        // Every stdin read gets its full 16 bytes, so no buffer ever
        // keeps a stale origin from an earlier operation.
        std::string stdinData = letters(rng, 16 * (size_t)stdinReads + 16);
        std::string peerData = letters(rng, 16);
        SessionSpec s;
        s.id = "event_storm#" + std::to_string(g);
        s.path = path;
        s.argv = {path, USER_IN, USER_OUT, USER_PEER, TRUSTED_BIN};
        s.stdinData = stdinData;
        s.setup = [image, peerData](Kernel &k) {
            addCommonWorld(k, peerData);
            k.vfs().addBinary(image->path, image);
        };
        s.expect = exactly(level);
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace sessionbench
