// Binary serialisation of a generated AcceleratorDesign.
//
// The content-addressed design cache (cluster/design_cache.h) memoizes
// NN-Gen output across serve/run invocations; for that it needs the
// whole hardware/software bundle — schedule, buffer plan, AGU programs,
// memory-image layout, RTL — as a byte string it can park on disk and
// decode without re-running the generator.  design_json.h stays the
// human/diff format; this codec is the machine round-trip: a design
// decoded from SerializeDesign bytes is field-identical to the original
// (DesignToJson and EmitVerilog emit the same text, the functional
// simulator produces bit-identical outputs).
//
// The format is versioned and self-checking: a magic tag and version
// word lead the payload, every read is bounds-checked, and trailing
// bytes are rejected — a truncated or stale cache file throws db::Error
// instead of decoding garbage.
#pragma once

#include <string>
#include <string_view>

#include "core/generator.h"

namespace db {

/// Bumped whenever the encoding (or any serialised struct) changes;
/// DeserializeDesign rejects other versions so stale cache entries are
/// regenerated rather than misdecoded.
inline constexpr std::uint32_t kDesignSerdeVersion = 3;

/// Encode the full design (header + every artifact) as a byte string.
std::string SerializeDesign(const AcceleratorDesign& design);

/// Decode a SerializeDesign payload.  Throws db::Error on a bad magic,
/// version mismatch, truncation or trailing bytes.
AcceleratorDesign DeserializeDesign(std::string_view bytes);

}  // namespace db
