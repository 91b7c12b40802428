/**
 * @file
 * Crash-safe JSONL journaling shared by the batch and fuzz drivers.
 *
 * A journal is an append-only file of one JSON object per line.  Each
 * line is prefixed with a CRC-32 over the rest of the line
 * ({"crc":"xxxxxxxx",...}), written and fsync'd as a unit, so a torn
 * write — power loss, SIGKILL mid-write, a hostile disk — is detected
 * on replay instead of trusted or fatal.  Writes go through the vio
 * seam (support/vio.hpp), so both the write and the fsync results are
 * typed and disk faults are injectable with --io-inject.
 *
 * withCrc / crcLineOk are also usable standalone by readers that
 * replay a journal; each line is then one JSON object (obs/json.hpp
 * writes the escaped strings and parses the lines back).  Lines
 * without a leading crc field (older builds) pass verification
 * unverified — the format is additive.
 */

#ifndef PATHSCHED_SUPPORT_JOURNAL_HPP
#define PATHSCHED_SUPPORT_JOURNAL_HPP

#include <string>

#include "support/status.hpp"
#include "support/vio.hpp"

namespace pathsched {

/**
 * Prefix a JSON object with a CRC over the rest of the line:
 * {"event":...}  ->  {"crc":"xxxxxxxx","event":...}
 * The CRC covers every byte after the crc field's comma.
 */
std::string withCrc(const std::string &json);

/**
 * Check one journal line's CRC.  Lines without a leading crc field
 * pass unverified.
 */
bool crcLineOk(const std::string &line);

/**
 * Append-only, crash-safe journal: every line() call writes one
 * CRC-prefixed line and fsyncs it before returning, through the vio
 * seam under @p label (default "journal") so hostile disks are
 * injectable.  A non-OK result from line() means the line may not be
 * on disk — the caller must stop recording side effects.
 */
class JsonlJournal
{
  public:
    /** @p vio may be null (the real filesystem is used). */
    JsonlJournal(const std::string &path, Vio *vio,
                 const std::string &label = "journal");
    ~JsonlJournal();

    JsonlJournal(const JsonlJournal &) = delete;
    JsonlJournal &operator=(const JsonlJournal &) = delete;

    /** Open (create/append) the journal file.  Typed failure. */
    [[nodiscard]] Status open();

    /** Append one line durably (see the class comment). */
    [[nodiscard]] Status line(const std::string &json);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string label_;
    Vio *vio_;
    int fd_ = -1;
};

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_JOURNAL_HPP
