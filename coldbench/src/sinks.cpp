#include "sinks.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace coldbench {

namespace {

constexpr std::uint64_t kPrime = 0x100000001b3ULL;
constexpr std::size_t kStageBytes = 1 << 16;
/** Capacity the reader asks for on each FIFO session. */
constexpr int kPipeBytes = 1 << 20;

std::uint64_t
loadWord(const unsigned char *p)
{
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof w);
    return w;
}

} // namespace

void
Digest::mixWord(std::uint64_t word)
{
    state_ = (state_ ^ word) * kPrime;
    state_ ^= state_ >> 29;
}

void
Digest::update(const char *data, std::size_t n)
{
    const auto *p = reinterpret_cast<const unsigned char *>(data);
    bytes_ += n;
    if (tail_len_ > 0) {
        const std::size_t take = std::min(n, 8 - tail_len_);
        std::memcpy(tail_ + tail_len_, p, take);
        tail_len_ += take;
        p += take;
        n -= take;
        if (tail_len_ < 8)
            return;
        mixWord(loadWord(tail_));
        tail_len_ = 0;
    }
    for (; n >= 8; p += 8, n -= 8)
        mixWord(loadWord(p));
    std::memcpy(tail_, p, n);
    tail_len_ = n;
}

std::uint64_t
Digest::value() const
{
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < tail_len_; ++i)
        h = (h ^ tail_[i]) * kPrime;
    return (h ^ bytes_) * kPrime;
}

CountingBuf::CountingBuf(std::streambuf *downstream)
    : downstream_(downstream), buffer_(kStageBytes)
{
    setp(buffer_.data(), buffer_.data() + buffer_.size());
}

void
CountingBuf::drain()
{
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    digest_.update(pbase(), n);
    if (downstream_ != nullptr && n > 0 &&
        downstream_->sputn(pbase(), static_cast<std::streamsize>(n)) !=
            static_cast<std::streamsize>(n))
        failed_ = true;
    setp(buffer_.data(), buffer_.data() + buffer_.size());
}

CountingBuf::int_type
CountingBuf::overflow(int_type ch)
{
    drain();
    if (failed_)
        return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(ch);
        pbump(1);
    }
    return traits_type::not_eof(ch);
}

std::streamsize
CountingBuf::xsputn(const char *s, std::streamsize n)
{
    std::streamsize done = 0;
    while (done < n) {
        if (pptr() == epptr()) {
            drain();
            if (failed_)
                return done;
        }
        const std::streamsize room = epptr() - pptr();
        const std::streamsize take = std::min(room, n - done);
        std::memcpy(pptr(), s + done, static_cast<std::size_t>(take));
        pbump(static_cast<int>(take));
        done += take;
    }
    return done;
}

int
CountingBuf::sync()
{
    // Staged bytes are kept until the buffer fills, so digest chunks
    // stay word-aligned; only a downstream buffer needs flushing.
    if (downstream_ == nullptr)
        return 0;
    drain();
    return failed_ || downstream_->pubsync() != 0 ? -1 : 0;
}

Tally
CountingBuf::finish()
{
    drain();
    if (downstream_ != nullptr && downstream_->pubsync() != 0)
        failed_ = true;
    if (failed_)
        throw std::runtime_error("short write through a counting sink");
    return Tally{digest_.bytes(), digest_.value()};
}

CountingStream::CountingStream(std::streambuf *downstream)
    : std::ostream(nullptr), buf_(downstream)
{
    rdbuf(&buf_);
}

FifoCounter::FifoCounter(std::string path) : path_(std::move(path))
{
    ::unlink(path_.c_str());
    if (::mkfifo(path_.c_str(), 0600) != 0)
        throw std::runtime_error("cannot create FIFO " + path_ + ": " +
                                 std::strerror(errno));
    reader_ = std::thread([this] { readerLoop(); });
}

FifoCounter::~FifoCounter()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    // The reader is parked in open(); one empty writer session wakes it
    // so it can observe stop_. A reader that already gave up needs none.
    bool broken = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        broken = broken_;
    }
    if (!broken) {
        const int fd = ::open(path_.c_str(), O_WRONLY);
        if (fd >= 0)
            ::close(fd);
    }
    reader_.join();
    ::unlink(path_.c_str());
}

void
FifoCounter::readerLoop()
{
    std::vector<char> buf(kStageBytes);
    for (;;) {
        const int fd = ::open(path_.c_str(), O_RDONLY);
        if (fd < 0 && errno == EINTR)
            continue;
        Digest digest;
        if (fd >= 0) {
            // A deep pipe lets the writer run ahead instead of waking
            // the reader every 64 KiB; the kernel may refuse, which only
            // costs speed.
            ::fcntl(fd, F_SETPIPE_SZ, kPipeBytes);
            for (;;) {
                const ssize_t n = ::read(fd, buf.data(), buf.size());
                if (n > 0)
                    digest.update(buf.data(), static_cast<std::size_t>(n));
                else if (n == 0 || errno != EINTR)
                    break;
            }
            ::close(fd);
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (fd < 0)
            broken_ = true;
        else
            last_ = Tally{digest.bytes(), digest.value()};
        ++sessions_;
        done_.notify_all();
        if (stop_ || broken_)
            return;
    }
}

std::optional<Tally>
FifoCounter::waitSession(std::uint64_t seen, double timeout_s)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const bool done =
        done_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return sessions_ > seen || broken_; });
    if (!done || broken_)
        return std::nullopt;
    return last_;
}

std::uint64_t
FifoCounter::sessions()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_;
}

} // namespace coldbench
