/**
 * @file
 * Writing a custom GT-Pin tool.
 *
 * Section III-B: "users may collect only the desired subset of these
 * statistics by writing custom profiling tools." This example builds
 * a tool the library does not ship: a per-kernel hot-block profiler
 * that finds the basic blocks where an application spends its
 * instructions (the classic 90/10 question), plus a memory-intensity
 * report (bytes per instruction per kernel).
 *
 * Usage: custom_tool [workload]   (default sandra-crypt-aes128)
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "common/logging.hh"
#include "common/table.hh"
#include "gtpin/gtpin.hh"
#include "ocl/runtime.hh"
#include "workloads/workload.hh"

using namespace gt;

namespace
{

/** A user-written GT-Pin tool: hot blocks + memory intensity. */
class HotBlockTool : public gtpin::GtPinTool
{
  public:
    std::string name() const override { return "hotblocks"; }

    void
    onKernelBuild(uint32_t kernel_id,
                  gtpin::Instrumenter &instrumenter) override
    {
        const isa::KernelBinary &bin = instrumenter.binary();
        KernelData &kd = kernels[kernel_id];
        kd.name = bin.name;
        kd.firstSlot = instrumenter.allocSlot(
            (uint32_t)bin.blocks.size());
        kd.weights.assign(bin.blocks.size(), 0);
        kd.lens.resize(bin.blocks.size());
        kd.bytes.resize(bin.blocks.size());
        for (const auto &block : bin.blocks) {
            // One counter per block: the paper's minimal-insertion
            // idiom.
            instrumenter.countBlockEntry(
                block.id, kd.firstSlot + block.id, 1);
            kd.lens[block.id] = (uint32_t)block.appInstrCount();
            uint32_t bytes = 0;
            for (const auto &ins : block.instrs) {
                if (ins.op == isa::Opcode::Send) {
                    bytes += (uint32_t)ins.send.bytesPerLane *
                        ins.simdWidth;
                }
            }
            kd.bytes[block.id] = bytes;
        }
    }

    void
    onDispatchComplete(const ocl::DispatchResult &result,
                       const gtpin::SlotReader &slots) override
    {
        KernelData &kd = kernels.at(result.kernelId);
        // Only the blocks this dispatch executed: the reader hands
        // over the slots it touched, not every slot the tool owns.
        slots.forRange(kd.firstSlot, (uint32_t)kd.weights.size(),
                       [&](uint32_t b, uint64_t execs) {
                           kd.weights[b] += execs * kd.lens[b];
                           kd.memBytes += execs * kd.bytes[b];
                           kd.instrs += execs * kd.lens[b];
                       });
    }

    void
    report(std::ostream &os) const
    {
        // Hot blocks across the whole application.
        struct Hot
        {
            std::string kernel;
            size_t block;
            uint64_t weight;
        };
        std::vector<Hot> hot;
        uint64_t total = 0;
        for (const auto &[id, kd] : kernels) {
            for (size_t b = 0; b < kd.weights.size(); ++b) {
                hot.push_back({kd.name, b, kd.weights[b]});
                total += kd.weights[b];
            }
        }
        std::sort(hot.begin(), hot.end(),
                  [](const Hot &a, const Hot &b) {
                      return a.weight > b.weight;
                  });

        TextTable t({"kernel", "block", "instructions", "share",
                     "cumulative"});
        double cum = 0.0;
        for (size_t i = 0; i < hot.size() && i < 10; ++i) {
            double share = (double)hot[i].weight / (double)total;
            cum += share;
            t.addRow({hot[i].kernel,
                      "bb" + std::to_string(hot[i].block),
                      humanCount((double)hot[i].weight), pct(share),
                      pct(cum)});
        }
        t.print(os, "Top 10 hottest basic blocks");

        TextTable m({"kernel", "instructions", "bytes",
                     "bytes/instr"});
        for (const auto &[id, kd] : kernels) {
            if (kd.instrs == 0)
                continue;
            m.addRow({kd.name, humanCount((double)kd.instrs),
                      humanBytes((double)kd.memBytes),
                      fixed((double)kd.memBytes /
                                (double)kd.instrs,
                            3)});
        }
        os << "\n";
        m.print(os, "Memory intensity per kernel");
    }

  private:
    struct KernelData
    {
        std::string name;
        uint32_t firstSlot = 0;
        std::vector<uint64_t> weights;
        std::vector<uint32_t> lens;
        std::vector<uint32_t> bytes;
        uint64_t memBytes = 0;
        uint64_t instrs = 0;
    };

    std::map<uint32_t, KernelData> kernels;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    std::string name = argc > 1 ? argv[1] : "sandra-crypt-aes128";
    const workloads::Workload *app = workloads::findWorkload(name);
    if (!app) {
        std::cerr << "unknown workload '" << name << "'\n";
        return 1;
    }

    // The standard GT-Pin setup: build the tool, attach the
    // framework to the driver, run the unmodified application.
    workloads::TemplateJit jit;
    ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit);
    HotBlockTool tool;
    gtpin::GtPin pin;
    pin.addTool(&tool);
    pin.attach(driver);

    ocl::ClRuntime rt(driver);
    std::cout << "Profiling " << name
              << " with the custom hot-block tool...\n\n";
    app->run(rt);
    pin.detach();

    tool.report(std::cout);
    return 0;
}
