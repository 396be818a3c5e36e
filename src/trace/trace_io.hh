/**
 * @file
 * Binary trace file format: writer, reader, and an in-memory source.
 *
 * Layout (little-endian):
 *   8-byte magic "NUTRACE1"
 *   u64 record count
 *   records: { u64 pc, u64 addr, u32 nonMemGap, u8 isWrite, 3 pad bytes }
 *
 * The format is intentionally trivial; its job is to let users capture a
 * workload once (e.g.\ from a pintool) and replay it through the
 * simulator.  A text form ("pc addr gap r|w" per line) is provided for
 * hand-written tests.
 */

#ifndef NUCACHE_TRACE_TRACE_IO_HH
#define NUCACHE_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace nucache
{

/**
 * Serialize @p records to @p os in the binary format.
 * Calls fatal() if the stream rejects any byte (full disk, closed
 * pipe), so a failed capture cannot masquerade as a finished one.
 */
void writeBinaryTrace(std::ostream &os,
                      const std::vector<TraceRecord> &records);

/**
 * Outcome of a non-fatal trace parse: on success @c ok is true and
 * @c records holds the payload; on failure @c error says what was
 * wrong with the input.  The try-parsers never call fatal(), so they
 * are safe to drive from fuzzers and from callers that want to report
 * the error themselves.
 */
struct TraceParseResult
{
    bool ok = false;
    std::string error;
    std::vector<TraceRecord> records;
};

/**
 * Parse a binary trace from @p is without ever exiting the process.
 * The header's record count is validated against the bytes actually
 * present (when the stream is seekable) before any allocation, so a
 * corrupt count cannot trigger a multi-gigabyte reserve.
 */
TraceParseResult tryReadBinaryTrace(std::istream &is);

/**
 * Parse a binary trace from @p is.
 * Calls fatal() on malformed input (bad magic, corrupt record count,
 * truncated payload).
 */
std::vector<TraceRecord> readBinaryTrace(std::istream &is);

/**
 * Serialize @p records to @p os, one "pc addr gap r|w" line each.
 * Calls fatal() if the stream rejects the output.
 */
void writeTextTrace(std::ostream &os,
                    const std::vector<TraceRecord> &records);

/**
 * Parse a text trace without ever exiting the process.  Blank lines
 * and lines starting with '#' are ignored.
 */
TraceParseResult tryReadTextTrace(std::istream &is);

/**
 * Parse a text trace.  Blank lines and lines starting with '#' are
 * ignored.  Calls fatal() on malformed lines.
 */
std::vector<TraceRecord> readTextTrace(std::istream &is);

/**
 * TraceSource over an in-memory record vector.  Used for file replay
 * and as the workhorse of unit tests.
 */
class VectorTraceSource : public TraceSource
{
  public:
    VectorTraceSource(std::string name, std::vector<TraceRecord> records);

    bool next(TraceRecord &rec) override;
    void reset() override;
    const std::string &name() const override { return sourceName; }

    /** @return number of records in the trace. */
    std::size_t size() const { return records.size(); }

  private:
    std::string sourceName;
    std::vector<TraceRecord> records;
    std::size_t cursor;
};

/** Load a binary trace file into a VectorTraceSource; fatal() on error. */
std::unique_ptr<VectorTraceSource> loadTraceFile(const std::string &path);

} // namespace nucache

#endif // NUCACHE_TRACE_TRACE_IO_HH
