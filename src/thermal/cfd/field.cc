#include "thermal/cfd/field.hh"

namespace ecolo::thermal {

double
Field3::mean() const
{
    if (data_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : data_)
        sum += v;
    return sum / static_cast<double>(data_.size());
}

} // namespace ecolo::thermal
