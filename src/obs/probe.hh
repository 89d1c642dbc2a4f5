/**
 * @file
 * Probe points: zero-overhead-when-unattached instrumentation hooks in
 * the gem5 tradition.
 *
 * A component *declares* a ProbePoint<Event> for each interesting
 * occurrence (a cTLB miss completing, a frame being evicted, a DRAM row
 * conflict) and *fires* it with a typed payload; it never knows who, if
 * anyone, listens. Observers (the event tracer, the interval sampler,
 * tests) implement ProbeListener<Event> and attach themselves.
 *
 * Cost model: an unattached probe is one empty-vector test on the hot
 * path. Sites that must build a non-trivial payload guard construction
 * with attached():
 *
 *   if (fillProbe_.attached())
 *       fillProbe_.fire(PageFillEvent{...});
 *
 * Attach/detach is not thread-safe; probes belong to one System, and a
 * System is single-threaded (parallel sweeps run one System per worker
 * with no shared observers -- see DESIGN.md 5b/7).
 */

#ifndef TDC_OBS_PROBE_HH
#define TDC_OBS_PROBE_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace tdc {
namespace obs {

template <typename Event>
class ProbeListener
{
  public:
    virtual ~ProbeListener() = default;
    virtual void notify(const Event &event) = 0;
};

template <typename Event>
class ProbePoint
{
  public:
    explicit ProbePoint(std::string name = "") : name_(std::move(name)) {}

    ProbePoint(const ProbePoint &) = delete;
    ProbePoint &operator=(const ProbePoint &) = delete;

    const std::string &name() const { return name_; }

    /** True when at least one listener is attached (hot-path guard). */
    bool attached() const { return !listeners_.empty(); }

    std::size_t listenerCount() const { return listeners_.size(); }

    /** Attaching the same listener twice is a wiring bug. */
    void
    attach(ProbeListener<Event> *l)
    {
        tdc_assert(l != nullptr, "null probe listener");
        tdc_assert(std::find(listeners_.begin(), listeners_.end(), l)
                       == listeners_.end(),
                   "listener attached twice to probe '{}'", name_);
        listeners_.push_back(l);
    }

    /** Detaching a listener that is not attached is a no-op. */
    void
    detach(ProbeListener<Event> *l)
    {
        listeners_.erase(
            std::remove(listeners_.begin(), listeners_.end(), l),
            listeners_.end());
    }

    void
    fire(const Event &event)
    {
        for (auto *l : listeners_)
            l->notify(event);
    }

  private:
    std::string name_;
    std::vector<ProbeListener<Event> *> listeners_;
};

/** Adapter wrapping a callable as a listener (wiring glue, tests). */
template <typename Event, typename Fn>
class FnListener : public ProbeListener<Event>
{
  public:
    explicit FnListener(Fn fn) : fn_(std::move(fn)) {}
    void notify(const Event &event) override { fn_(event); }

  private:
    Fn fn_;
};

/**
 * Owns a set of probe attachments and detaches every one of them when
 * it is destroyed. A listener is either borrowed (attach(): it must
 * outlive this owner) or a callable that bridge() wraps in an
 * FnListener kept here. The probe points must outlive the owner too.
 */
class ProbeAttachments
{
  public:
    ProbeAttachments() = default;

    ProbeAttachments(const ProbeAttachments &) = delete;
    ProbeAttachments &operator=(const ProbeAttachments &) = delete;

    template <typename Event>
    void
    attach(ProbePoint<Event> &p, ProbeListener<Event> *l)
    {
        links_.push_back(std::make_unique<Link<Event>>(p, l));
    }

    template <typename Event, typename Fn>
    void
    bridge(ProbePoint<Event> &p, Fn fn)
    {
        links_.push_back(
            std::make_unique<FnLink<Event, Fn>>(p, std::move(fn)));
    }

  private:
    struct AnyLink
    {
        virtual ~AnyLink() = default;
    };

    template <typename Event>
    struct Link : AnyLink
    {
        Link(ProbePoint<Event> &p, ProbeListener<Event> *l)
            : point(&p), listener(l)
        {
            point->attach(listener);
        }

        ~Link() override { point->detach(listener); }

        ProbePoint<Event> *point;
        ProbeListener<Event> *listener;
    };

    template <typename Event, typename Fn>
    struct FnLink : AnyLink
    {
        FnLink(ProbePoint<Event> &p, Fn fn)
            : listener(std::move(fn)), link(p, &listener)
        {
        }

        FnListener<Event, Fn> listener;
        Link<Event> link; //!< declared last: detaches before `listener` dies
    };

    std::vector<std::unique_ptr<AnyLink>> links_;
};

} // namespace obs
} // namespace tdc

#endif // TDC_OBS_PROBE_HH
