/**
 * @file
 * HostClock: host time corrected by a reference kernel (see
 * workloads.hh). The kernel allocates nothing after construction, so it
 * leaves the heap-allocation counts of the harness untouched.
 */

#include <algorithm>

#include "workloads.hh"

namespace perfbench {

namespace {

constexpr std::size_t kSortKeys = 2048;
constexpr std::size_t kHeapOps = 1024;

} // namespace

HostClock::HostClock(bool sampling) : sampling_(sampling)
{
    if (sampling_) {
        keys_.resize(kSortKeys);
        heap_.reserve(kHeapOps);
        times_.reserve(4096);
        for (int i = 0; i < kInitialSamples; ++i)
            sample();
    }
    kernelSeconds_ = 0.0;
    start_ = Clock::now();
}

double
HostClock::now() const
{
    return secondsSince(start_) - kernelSeconds_;
}

double
HostClock::scale() const
{
    if (times_.empty())
        return 1.0;
    std::vector<double> sorted = times_;
    const auto mid = sorted.begin() + sorted.size() / 2;
    std::nth_element(sorted.begin(), mid, sorted.end());
    return kReferenceSeconds / *mid;
}

void
HostClock::sample()
{
    const Clock::time_point start = Clock::now();
    std::uint64_t x = state_;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t &key : keys_)
        key = static_cast<std::uint32_t>(next());
    std::sort(keys_.begin(), keys_.end());
    heap_.clear();
    for (std::size_t i = 0; i < kHeapOps; ++i) {
        heap_.push_back(next());
        std::push_heap(heap_.begin(), heap_.end());
        if (i % 2 == 1) {
            std::pop_heap(heap_.begin(), heap_.end());
            heap_.pop_back();
        }
    }
    state_ = x + keys_[kSortKeys / 2] + heap_.front();
    const double elapsed = secondsSince(start);
    times_.push_back(elapsed);
    kernelSeconds_ += elapsed;
}

} // namespace perfbench
