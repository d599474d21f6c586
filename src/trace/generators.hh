/**
 * @file
 * Synthetic year-long workload generators.
 *
 * The paper drives its evaluation with power traces synthesized from
 * Facebook/Baidu request-level logs (default trace, Fig. 6(b)) and from a
 * Google cluster trace (alternate trace, Fig. 13(a)). Those logs are
 * proprietary, so we reproduce their published structure instead:
 *
 *  - DiurnalTraceGenerator: strong day/night swing with an afternoon peak,
 *    an evening shoulder, weekday/weekend modulation, AR(1) short-term
 *    noise, and Poisson load bursts -- the Facebook/Baidu web-serving shape.
 *  - GoogleStyleTraceGenerator: plateau-dominated semi-Markov level shifts
 *    with a weaker diurnal component and heavier bursts -- the batch-plus-
 *    services cluster shape.
 *
 * Both emit per-minute *utilization* in [0, 1]; the power subsystem turns
 * utilization into kilowatts via a server power model.
 */

#ifndef ECOLO_TRACE_GENERATORS_HH
#define ECOLO_TRACE_GENERATORS_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "trace/utilization_trace.hh"
#include "util/rng.hh"

namespace ecolo::trace {

/** Interface for per-minute utilization generators. */
class TraceGenerator
{
  public:
    virtual ~TraceGenerator() = default;

    /** Produce a trace covering the given number of minutes. */
    virtual UtilizationTrace generate(std::size_t num_minutes,
                                      Rng &rng) const = 0;
};

/** Web-serving style diurnal generator (default/Facebook/Baidu-like). */
class DiurnalTraceGenerator : public TraceGenerator
{
  public:
    struct Params
    {
        double baseUtilization = 0.25;   //!< overnight floor
        double diurnalAmplitude = 0.55;  //!< day/night swing
        double peakHour = 14.0;          //!< afternoon peak (local time)
        double secondaryAmplitude = 0.08;//!< evening shoulder strength
        double secondaryPeakHour = 20.5; //!< evening shoulder time
        double weekendFactor = 0.85;     //!< weekend demand multiplier
        double noiseSigma = 0.025;       //!< AR(1) innovation stddev
        double noisePhi = 0.90;          //!< AR(1) coefficient
        double burstsPerDay = 4.0;       //!< Poisson burst arrival rate
        double burstMagnitude = 0.12;    //!< mean extra utilization per burst
        double burstDurationMinutes = 25.0; //!< mean burst length
    };

    DiurnalTraceGenerator() = default;
    explicit DiurnalTraceGenerator(Params params) : params_(params) {}

    UtilizationTrace generate(std::size_t num_minutes,
                              Rng &rng) const override;

    const Params &params() const { return params_; }

  private:
    Params params_;
};

/** Plateau/burst style generator (alternate/Google-cluster-like). */
class GoogleStyleTraceGenerator : public TraceGenerator
{
  public:
    struct Params
    {
        /** Candidate plateau utilization levels the trace hops between. */
        std::vector<double> plateauLevels{0.35, 0.55, 0.75, 0.95};
        double meanDwellMinutes = 180.0; //!< mean time at one plateau
        double diurnalAmplitude = 0.10;  //!< weak day/night component
        double peakHour = 15.0;
        double noiseSigma = 0.030;
        double noisePhi = 0.85;
        double burstsPerDay = 8.0;
        double burstMagnitude = 0.15;
        double burstDurationMinutes = 15.0;
    };

    GoogleStyleTraceGenerator() = default;
    explicit GoogleStyleTraceGenerator(Params params)
        : params_(std::move(params)) {}

    UtilizationTrace generate(std::size_t num_minutes,
                              Rng &rng) const override;

    const Params &params() const { return params_; }

  private:
    Params params_;
};

/**
 * Request-level generator: the paper's actual pipeline ("generate a
 * year-long synthetic power trace from request-level log using server
 * power models"). A diurnal Poisson request process drives an M/M/k-style
 * service cluster; utilization is offered load over service capacity.
 * Compared to DiurnalTraceGenerator the short-term structure is request
 * shot noise rather than AR(1) noise.
 */
class RequestTraceGenerator : public TraceGenerator
{
  public:
    struct Params
    {
        double peakRequestsPerSecond = 900.0; //!< diurnal peak
        double baseFraction = 0.35;     //!< overnight rate / peak rate
        double peakHour = 14.0;
        double weekendFactor = 0.85;
        /** Aggregate service capacity in requests/second at 100% util. */
        double clusterCapacityRps = 1000.0;
        /** Flash-crowd events per day (rate spikes). */
        double flashCrowdsPerDay = 1.0;
        double flashCrowdBoost = 0.35;  //!< fractional rate increase
        double flashCrowdMinutes = 30.0;
    };

    RequestTraceGenerator() = default;
    explicit RequestTraceGenerator(Params params) : params_(params) {}

    UtilizationTrace generate(std::size_t num_minutes,
                              Rng &rng) const override;

    const Params &params() const { return params_; }

  private:
    Params params_;
};

} // namespace ecolo::trace

#endif // ECOLO_TRACE_GENERATORS_HH
