/**
 * @file
 * Parametric description of a modeled GPU.
 *
 * The paper's test system is an Ivy Bridge HD4000 (16 EUs in two
 * subslices, 8 hardware threads per EU, 1150 MHz peak, 332.8 GFLOPS);
 * its cross-generation validation adds a Haswell HD4600 (20 EUs).
 * Both are provided as presets; any other design point can be
 * constructed for design-space exploration.
 */

#ifndef GT_GPU_DEVICE_CONFIG_HH
#define GT_GPU_DEVICE_CONFIG_HH

#include <cstdint>
#include <string>

namespace gt::gpu
{

/** Static hardware parameters of one GPU design point. */
struct DeviceConfig
{
    std::string name = "generic";
    std::string generation = "generic";

    uint32_t numEus = 16;          //!< execution units
    uint32_t numSubslices = 2;     //!< EU grouping (8 EUs each on IVB)
    uint32_t threadsPerEu = 8;     //!< SMT hardware threads per EU
    uint32_t fpuLanesPerEu = 4;    //!< 32-bit FPU lanes per EU pipe

    double maxFreqMhz = 1150.0;    //!< maximum GPU clock

    /** DRAM bandwidth in bytes per nanosecond (GB/s numerically). */
    double memBandwidthGBs = 25.6;

    /** Uncontended memory round-trip latency in nanoseconds. */
    double memLatencyNs = 180.0;

    /** Shared LLC slice capacity in bytes. */
    uint64_t llcBytes = 4ull << 20;

    /** Fixed host-side cost to launch one kernel, in microseconds. */
    double dispatchOverheadUs = 8.0;

    /** Device memory bytes; committed lazily, unwritten bytes read 0. */
    uint64_t memBytes = 64ull << 20;

    /** Total simultaneously resident hardware threads. */
    uint32_t totalHwThreads() const { return numEus * threadsPerEu; }

    /** Peak single-precision GFLOPS (2 flops/lane/cycle, MAD). */
    double
    peakGflops() const
    {
        return numEus * fpuLanesPerEu * 2.0 * 2.0 * maxFreqMhz / 1e3;
    }

    /** The paper's profiling platform: Ivy Bridge Intel HD 4000. */
    static DeviceConfig hd4000();

    /** The paper's validation platform: Haswell Intel HD 4600. */
    static DeviceConfig hd4600();
};

} // namespace gt::gpu

#endif // GT_GPU_DEVICE_CONFIG_HH
