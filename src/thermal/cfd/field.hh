/**
 * @file
 * Dense 3-D scalar field used by the CFD-lite solver (temperature, heat
 * source density, velocity components).
 */

#ifndef ECOLO_THERMAL_CFD_FIELD_HH
#define ECOLO_THERMAL_CFD_FIELD_HH

#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace ecolo::thermal {

/** A (nx, ny, nz) scalar field stored contiguously, x-major. */
class Field3
{
  public:
    Field3() = default;
    Field3(std::size_t nx, std::size_t ny, std::size_t nz,
           double initial = 0.0)
        : nx_(nx), ny_(ny), nz_(nz), data_(nx * ny * nz, initial)
    {
        ECOLO_ASSERT(nx > 0 && ny > 0 && nz > 0, "empty field dimensions");
    }

    std::size_t nx() const { return nx_; }
    std::size_t ny() const { return ny_; }
    std::size_t nz() const { return nz_; }
    std::size_t size() const { return data_.size(); }

    double &
    at(std::size_t i, std::size_t j, std::size_t k)
    {
        return data_[index(i, j, k)];
    }

    double
    at(std::size_t i, std::size_t j, std::size_t k) const
    {
        return data_[index(i, j, k)];
    }

    void fill(double value) { data_.assign(data_.size(), value); }

    double mean() const;

    const std::vector<double> &raw() const { return data_; }
    std::vector<double> &raw() { return data_; }

  private:
    std::size_t
    index(std::size_t i, std::size_t j, std::size_t k) const
    {
        ECOLO_ASSERT(i < nx_ && j < ny_ && k < nz_,
                     "field index out of range: (", i, ",", j, ",", k, ")");
        return (i * ny_ + j) * nz_ + k;
    }

    std::size_t nx_ = 0, ny_ = 0, nz_ = 0;
    std::vector<double> data_;
};

} // namespace ecolo::thermal

#endif // ECOLO_THERMAL_CFD_FIELD_HH
