#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    out.value = samples[rank - 1];
    out.beyond = static_cast<std::size_t>(
        samples.end() -
        std::upper_bound(samples.begin(), samples.end(), out.value));
    return out;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0).value;
}

std::vector<std::size_t>
calmest(const std::vector<double> &shares, double floor)
{
    const double limit = std::max(median(shares), floor);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < shares.size(); ++i) {
        if (shares[i] <= limit)
            out.push_back(i);
    }
    return out;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::open(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = current_;
    s.start = now();
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    spans_[id].end = now();
    current_ = spans_[id].parent;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << s.start * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
            << ", \"args\": {\"id\": " << i << ", \"parent\": "
            << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Ledger
buildLedger(const std::vector<Span> &spans,
            const std::vector<std::string> &layers)
{
    Ledger l;
    for (const std::string &layer : layers)
        l.layerSelf[layer] = 0.0;

    std::vector<double> childTime(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childTime[s.parent] += s.end - s.start;
    }
    double attributed = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = s.end - s.start;
        const double self = dur - childTime[i];
        if (s.parent < 0)
            l.wall += dur;
        l.nameSelf[s.name] += self;
        l.nameTotal[s.name] += dur;
        ++l.calls[s.name];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        auto it = l.layerSelf.find(layer);
        if (it != l.layerSelf.end() && layer != s.name) {
            it->second += self;
            attributed += self;
        }
    }
    l.unattributed = l.wall - attributed;
    return l;
}

} // namespace perfbench
