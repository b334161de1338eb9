// Content-addressed result cache for farm cells.
//
// A cell's key is a 64-bit FNV-1a hash (16 hex digits) over its canonical
// resolved configuration, the worker binary's build id, and the bytes of
// any file the cell replays — so a result is reused only when *neither* the
// configuration, *nor* its input files, *nor* the binary that would produce
// it has changed. Editing one dimension of a spec re-keys only the affected
// cells; editing a replayed CSV re-keys the cells that read it; rebuilding
// the simulator re-keys everything.
//
// The cache is a flat directory of <key>.json files (the result document
// uno_sim --one-cell wrote) and, for a cell finalized as failed, a
// <key>.failed.json record of its attempts and last error. It is the farm's
// only record of a finished cell: a rerun skips every cell that has either.
// Both land with write-to-temp + rename, so a cache file is always complete:
// a crash mid-store leaves a stray temp file, never a truncated record.
#pragma once

#include <cstdint>
#include <string>

#include "farm/spec.hpp"

namespace uno {

/// 64-bit FNV-1a.
std::uint64_t fnv1a64(const std::string& data);

/// Cache key for `cell` under `build_id` (build_info_string() of the worker
/// binary): 16 lowercase hex digits. Reads the file the cell replays (its
/// `file` key), relative to the working directory the worker will run in; a
/// file that cannot be read keys as missing.
std::string farm_cell_key(const FarmCell& cell, const std::string& build_id);

/// A failure record: how a cell that is finalized as failed ended.
struct CellFailure {
  int attempts = 0;
  std::string error;  // last failure ("exit 3", "signal 11", "timeout ...")
};

class ResultCache {
 public:
  explicit ResultCache(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }
  /// Create the cache directory (and parents). False + *err on failure.
  bool ensure_dir(std::string* err);

  std::string path_for(const std::string& key) const { return dir_ + "/" + key + ".json"; }
  /// A non-empty result file exists for `key`.
  bool has(const std::string& key) const;
  /// Move `tmp_path` (a completed result file) into the cache for `key`.
  bool store(const std::string& key, const std::string& tmp_path, std::string* err);
  /// Read a cached result; false when absent.
  bool read(const std::string& key, std::string* contents) const;

  /// Record that the cell of `key` failed for good (<key>.failed.json).
  bool store_failure(const std::string& key, const CellFailure& failure,
                     std::string* err);
  /// The failure record of `key`; false when there is none.
  bool read_failure(const std::string& key, CellFailure* failure) const;

 private:
  std::string dir_;
};

}  // namespace uno
