/**
 * @file
 * Byte-counting output sinks that keep the disk out of timed exports.
 *
 * The export workload streams documents of 100+ MB per op. Writing them
 * to a file would time the page cache and writeback, not the program, so
 * the streamed documents go into a CountingStream (counts and digests
 * the bytes, keeps nothing) and the shard writer, which only takes a
 * path, writes into a FIFO drained by a FifoCounter thread.
 */
#ifndef COLDBENCH_SINKS_H
#define COLDBENCH_SINKS_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

namespace coldbench {

/**
 * Order-sensitive 64-bit digest of a byte stream. The value depends only
 * on the bytes, not on how update() calls split them.
 */
class Digest
{
  public:
    void update(const char *data, std::size_t n);
    /** Digest of everything passed to update() so far. */
    std::uint64_t value() const;
    std::uint64_t bytes() const { return bytes_; }

  private:
    void mixWord(std::uint64_t word);

    std::uint64_t state_ = 0xcbf29ce484222325ULL;
    std::uint64_t bytes_ = 0;
    unsigned char tail_[8] = {};
    std::size_t tail_len_ = 0;
};

/** Byte count and digest of one written document. */
struct Tally
{
    std::uint64_t bytes = 0;
    std::uint64_t digest = 0;

    bool operator==(const Tally &) const = default;
};

/**
 * Stream buffer that digests everything written through it and, when
 * given a downstream buffer, forwards the bytes there too.
 */
class CountingBuf : public std::streambuf
{
  public:
    explicit CountingBuf(std::streambuf *downstream = nullptr);
    CountingBuf(const CountingBuf &) = delete;
    CountingBuf &operator=(const CountingBuf &) = delete;

    /** Drain the staging buffer and return the totals. */
    Tally finish();

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;
    int sync() override;

  private:
    void drain();

    std::streambuf *downstream_;
    std::vector<char> buffer_;
    Digest digest_;
    bool failed_ = false;
};

/** An std::ostream over a CountingBuf. */
class CountingStream : public std::ostream
{
  public:
    explicit CountingStream(std::streambuf *downstream = nullptr);
    Tally finish() { return buf_.finish(); }

  private:
    CountingBuf buf_;
};

/**
 * A FIFO at @p path whose reader thread tallies each writer session:
 * every open-write-close of the path by a writer is one session. The
 * FIFO is removed and the thread joined on destruction.
 */
class FifoCounter
{
  public:
    /** Creates the FIFO; throws std::runtime_error when it cannot. */
    explicit FifoCounter(std::string path);
    ~FifoCounter();
    FifoCounter(const FifoCounter &) = delete;
    FifoCounter &operator=(const FifoCounter &) = delete;

    const std::string &path() const { return path_; }

    /**
     * Wait up to @p timeout_s for more than @p seen writer sessions to
     * have completed; the tally of the last one, or nothing when none
     * came or the FIFO broke.
     */
    std::optional<Tally> waitSession(std::uint64_t seen, double timeout_s);

    /** Writer sessions completed so far. */
    std::uint64_t sessions();

  private:
    void readerLoop();

    std::string path_;
    std::mutex mutex_;
    std::condition_variable done_;
    std::uint64_t sessions_ = 0;
    Tally last_;
    bool stop_ = false;
    /** The FIFO could not be opened; no further sessions will come. */
    bool broken_ = false;
    std::thread reader_;
};

} // namespace coldbench

#endif // COLDBENCH_SINKS_H
