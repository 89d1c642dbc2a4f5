/**
 * @file
 * Base class for named simulation components.
 */

#ifndef TDC_SIM_SIM_OBJECT_HH
#define TDC_SIM_SIM_OBJECT_HH

#include <string>

#include "common/stats.hh"

namespace tdc {

/**
 * A named component with a stats group. The System owns all
 * components; each keeps its own notion of time (cores carry a local
 * tick cursor, DRAM devices return completion ticks directly).
 */
class SimObject
{
  public:
    explicit SimObject(std::string name)
        : name_(std::move(name)), statGroup_(name_)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }

    stats::StatGroup &statGroup() { return statGroup_; }
    const stats::StatGroup &statGroup() const { return statGroup_; }

  private:
    std::string name_;
    stats::StatGroup statGroup_;
};

} // namespace tdc

#endif // TDC_SIM_SIM_OBJECT_HH
