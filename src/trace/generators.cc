#include "trace/generators.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/sim_time.hh"

namespace ecolo::trace {

namespace {

/**
 * Smooth daily shape: cosine bump centered on peak_hour with a 24-hour
 * period, in [0, 1] (0 at the antipodal hour, 1 at the peak).
 */
double
dailyShape(double hour, double peak_hour)
{
    const double phase = (hour - peak_hour) / 24.0 * 2.0 * M_PI;
    return 0.5 * (1.0 + std::cos(phase));
}

/**
 * dailyShape at every minute of the day: entry m is
 * dailyShape(hourOfDay(m), peak_hour). hourOfDay depends only on the
 * minute of the day, so reading entry minuteOfDay(t) gives the bits of
 * the call at t without a cosine per sample.
 */
std::vector<double>
dailyShapeTable(double peak_hour)
{
    std::vector<double> shape(kMinutesPerDay);
    for (std::size_t m = 0; m < shape.size(); ++m)
        shape[m] = dailyShape(hourOfDay(static_cast<MinuteIndex>(m)),
                              peak_hour);
    return shape;
}

/** Index of minute t in a dailyShapeTable. */
std::size_t
minuteSlot(MinuteIndex t)
{
    return static_cast<std::size_t>(minuteOfDay(t));
}

/** Poisson burst process: additive utilization bursts over the horizon. */
void
addBursts(std::vector<double> &samples, Rng &rng, double bursts_per_day,
          double magnitude_mean, double duration_mean)
{
    if (bursts_per_day <= 0.0)
        return;
    const double rate_per_minute =
        bursts_per_day / static_cast<double>(kMinutesPerDay);
    double t = rng.exponential(rate_per_minute);
    while (t < static_cast<double>(samples.size())) {
        const auto start = static_cast<std::size_t>(t);
        const double magnitude =
            rng.exponential(1.0 / std::max(magnitude_mean, 1e-9));
        const double duration =
            std::max(1.0, rng.exponential(1.0 / std::max(duration_mean,
                                                         1e-9)));
        const auto end = std::min(samples.size(),
                                  start + static_cast<std::size_t>(duration));
        for (std::size_t i = start; i < end; ++i) {
            // Triangular ramp up/down makes bursts look like real surges
            // rather than square pulses.
            const double pos = static_cast<double>(i - start) /
                               std::max(1.0, duration - 1.0);
            const double envelope = 1.0 - std::abs(2.0 * pos - 1.0);
            samples[i] += magnitude * (0.5 + 0.5 * envelope);
        }
        t += rng.exponential(rate_per_minute);
    }
}

} // namespace

UtilizationTrace
DiurnalTraceGenerator::generate(std::size_t num_minutes, Rng &rng) const
{
    ECOLO_ASSERT(num_minutes > 0, "cannot generate an empty trace");
    const Params &p = params_;
    std::vector<double> samples(num_minutes);

    // The noise-free level depends only on the minute of the day and on
    // whether the day is a weekend, so it is tabled once per trace.
    const std::vector<double> primary = dailyShapeTable(p.peakHour);
    const std::vector<double> secondary = dailyShapeTable(p.secondaryPeakHour);
    std::vector<double> weekday(kMinutesPerDay), weekend(kMinutesPerDay);
    for (std::size_t m = 0; m < weekday.size(); ++m) {
        double level = p.baseUtilization;
        level += p.diurnalAmplitude * primary[m];
        level += p.secondaryAmplitude * secondary[m];
        weekday[m] = level;
        weekend[m] = level * p.weekendFactor;
    }

    // The AR(1) noise takes one standard normal per minute and nothing
    // else draws in between, so all of them are drawn first, into the
    // samples they turn into (rng.normals runs the transforms on the
    // pool). `0.0 + innovation * z` is normal(0.0, innovation) op for op.
    rng.normals(samples);
    double noise = 0.0;
    const double noise_innovation =
        p.noiseSigma * std::sqrt(std::max(0.0, 1.0 - p.noisePhi * p.noisePhi));
    for (std::size_t i = 0; i < num_minutes; ++i) {
        const auto t = static_cast<MinuteIndex>(i);
        const double level = (isWeekend(t) ? weekend : weekday)[minuteSlot(t)];
        noise = p.noisePhi * noise + (0.0 + noise_innovation * samples[i]);
        samples[i] = level + noise;
    }

    addBursts(samples, rng, p.burstsPerDay, p.burstMagnitude,
              p.burstDurationMinutes);

    for (double &s : samples)
        s = std::clamp(s, 0.0, 1.0);
    return UtilizationTrace(std::move(samples));
}

UtilizationTrace
GoogleStyleTraceGenerator::generate(std::size_t num_minutes, Rng &rng) const
{
    ECOLO_ASSERT(num_minutes > 0, "cannot generate an empty trace");
    ECOLO_ASSERT(!params_.plateauLevels.empty(),
                 "need at least one plateau level");
    const Params &p = params_;
    std::vector<double> samples(num_minutes);

    std::size_t level_idx = rng.uniformInt(p.plateauLevels.size());
    double dwell_left = rng.exponential(1.0 / p.meanDwellMinutes);
    double plateau = p.plateauLevels[level_idx];
    double current = plateau;
    double noise = 0.0;
    const double noise_innovation =
        p.noiseSigma * std::sqrt(std::max(0.0, 1.0 - p.noisePhi * p.noisePhi));
    const std::vector<double> shape = dailyShapeTable(p.peakHour);

    for (std::size_t i = 0; i < num_minutes; ++i) {
        if (dwell_left <= 0.0) {
            // Hop to a *different* plateau to create visible level shifts.
            std::size_t next = rng.uniformInt(p.plateauLevels.size());
            if (p.plateauLevels.size() > 1 && next == level_idx)
                next = (next + 1) % p.plateauLevels.size();
            level_idx = next;
            plateau = p.plateauLevels[level_idx];
            dwell_left = rng.exponential(1.0 / p.meanDwellMinutes);
        }
        dwell_left -= 1.0;

        // Exponential smoothing toward the plateau gives ~10-minute ramps
        // instead of instantaneous jumps.
        current += (plateau - current) * 0.15;

        const auto t = static_cast<MinuteIndex>(i);
        const double diurnal =
            p.diurnalAmplitude * (shape[minuteSlot(t)] - 0.5);
        noise = p.noisePhi * noise + rng.normal(0.0, noise_innovation);
        samples[i] = current + diurnal + noise;
    }

    addBursts(samples, rng, p.burstsPerDay, p.burstMagnitude,
              p.burstDurationMinutes);

    for (double &s : samples)
        s = std::clamp(s, 0.0, 1.0);
    return UtilizationTrace(std::move(samples));
}

UtilizationTrace
RequestTraceGenerator::generate(std::size_t num_minutes, Rng &rng) const
{
    ECOLO_ASSERT(num_minutes > 0, "cannot generate an empty trace");
    ECOLO_ASSERT(params_.clusterCapacityRps > 0.0,
                 "cluster capacity must be positive");
    const Params &p = params_;
    std::vector<double> samples(num_minutes);

    // Flash-crowd schedule (start minute -> boost envelope).
    std::vector<std::pair<std::size_t, std::size_t>> crowds;
    if (p.flashCrowdsPerDay > 0.0) {
        const double rate = p.flashCrowdsPerDay /
                            static_cast<double>(kMinutesPerDay);
        double t = rng.exponential(rate);
        while (t < static_cast<double>(num_minutes)) {
            const auto start = static_cast<std::size_t>(t);
            crowds.emplace_back(
                start, std::min(num_minutes,
                                start + static_cast<std::size_t>(
                                            p.flashCrowdMinutes)));
            t += rng.exponential(rate);
        }
    }

    const std::vector<double> shape = dailyShapeTable(p.peakHour);
    std::size_t crowd_idx = 0;
    for (std::size_t i = 0; i < num_minutes; ++i) {
        const auto t = static_cast<MinuteIndex>(i);
        // Diurnal request rate.
        double rate = p.peakRequestsPerSecond *
                      (p.baseFraction +
                       (1.0 - p.baseFraction) * shape[minuteSlot(t)]);
        if (isWeekend(t))
            rate *= p.weekendFactor;
        // Flash crowds multiply the offered rate.
        while (crowd_idx < crowds.size() && i >= crowds[crowd_idx].second)
            ++crowd_idx;
        if (crowd_idx < crowds.size() && i >= crowds[crowd_idx].first)
            rate *= 1.0 + p.flashCrowdBoost;
        // Poisson shot noise: the minute's arrivals around rate*60.
        const double mean_arrivals = rate * 60.0;
        const double arrivals =
            static_cast<double>(rng.poisson(mean_arrivals));
        const double utilization =
            arrivals / (p.clusterCapacityRps * 60.0);
        samples[i] = std::clamp(utilization, 0.0, 1.0);
    }
    return UtilizationTrace(std::move(samples));
}

} // namespace ecolo::trace
