#include "tracer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/ops.hpp"

namespace perfbench {

namespace {

std::string
layer_of(const char *name)
{
    const char *dot = std::strchr(name, '.');
    const std::string layer =
        dot ? std::string(name, dot) : std::string(name);
    return layer == "phase" ? "unattributed" : layer;
}

void
write_escaped(std::ostream &os, const char *s)
{
    os << '"';
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            os << '\\';
        os << *s;
    }
    os << '"';
}

}  // namespace

double
nn_op_seconds()
{
    const auto &s = voyager::nn::op_stats();
    return s.gemm.seconds + s.qgemm.seconds + s.lstm_gate.seconds +
           s.attention.seconds;
}

Tracer::Tracer(bool enabled, std::size_t max_stored)
    : active_(enabled), enabled_(enabled), max_stored_(max_stored),
      origin_(now_s())
{
}

void
Tracer::set_enabled(bool on)
{
    if (!stack_.empty())
        throw std::logic_error("tracer toggled inside a span");
    enabled_ = active_ && on;
}

void
Tracer::open(const char *name, std::uint32_t tenant, std::uint64_t seq)
{
    std::size_t phase = stack_.empty() ? 0 : stack_.back().phase;
    if (std::strncmp(name, "phase.", 6) == 0) {
        const auto it = std::find(phase_names_.begin(),
                                  phase_names_.end(), name + 6);
        phase = static_cast<std::size_t>(it - phase_names_.begin());
        if (it == phase_names_.end())
            phase_names_.emplace_back(name + 6);
    }
    const std::uint64_t parent =
        stack_.empty() ? next_id_ : stack_.back().id;
    stack_.push_back({name, next_id_++, parent, tenant, seq, 0.0,
                      nn_op_seconds(), 0.0, 0.0, 0.0, phase});
    // Read the clock last so the bookkeeping above stays outside.
    stack_.back().start = now_s();
}

void
Tracer::close()
{
    const double end = now_s();
    const Open o = stack_.back();
    stack_.pop_back();
    const double dur = end - o.start;
    const double nn = nn_op_seconds() - o.nn_start;
    const double own_nn = nn - o.child_nn;
    charge(o.phase, layer_of(o.name),
           dur - o.child - o.attributed - own_nn);
    charge(o.phase, "nn", own_nn);
    if (!stack_.empty()) {
        stack_.back().child += dur;
        stack_.back().child_nn += nn;
    }
    if (stored_.size() < max_stored_)
        stored_.push_back(
            {o.name, o.id, o.parent, o.tenant, o.seq, o.start, end});
}

void
Tracer::attribute(const char *layer, double seconds)
{
    if (!enabled_ || stack_.empty())
        return;
    stack_.back().attributed += seconds;
    charge(stack_.back().phase, layer, seconds);
}

void
Tracer::charge(std::size_t phase, const std::string &layer, double s)
{
    self_[{phase_names_[phase], layer}] += s;
}

std::map<std::string, double>
Tracer::self_by_layer() const
{
    std::map<std::string, double> out;
    for (const auto &[key, s] : self_)
        out[key.second] += s;
    return out;
}

void
Tracer::write_json(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Stored &s : stored_) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"name\":";
        write_escaped(os, s.name);
        os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << (s.start - origin_) * 1e6
           << ",\"dur\":" << (s.end - s.start) * 1e6
           << ",\"args\":{\"id\":" << s.id;
        if (s.parent != s.id)
            os << ",\"parent\":" << s.parent;
        if (s.tenant != kNoTenant)
            os << ",\"request\":\"" << s.tenant << ":" << s.seq << "\"";
        os << "}}";
    }
    os << "\n],\"spans\":" << spans() << ",\"dropped\":" << dropped()
       << "}\n";
}

}  // namespace perfbench
