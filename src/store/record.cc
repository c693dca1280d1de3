#include "store/record.hh"

#include <algorithm>

#include "store/file_io.hh"
#include "store/json.hh"
#include "support/table.hh"

namespace etc::store {

namespace {

std::string
encodeBody(const std::string &headerLine,
           const core::CellSummary &summary)
{
    std::string out = headerLine + "\n";

    JsonObjectWriter summaryLine;
    summaryLine.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "summary")
        .field("trials", uint64_t{summary.trials})
        .field("completed", uint64_t{summary.completed})
        .field("crashed", uint64_t{summary.crashed})
        .field("timed_out", uint64_t{summary.timedOut})
        .field("total_instructions", summary.totalInstructions);
    // Optional like the key's "policy" member: emitted only when the
    // static-prune fast path synthesized trials, so prune-off records
    // stay byte-stable with every earlier schema-1 writer.
    if (summary.trialsPruned)
        summaryLine.field("trials_pruned", summary.trialsPruned);
    summaryLine
        .field("wall_seconds_bits", hexU64(doubleBits(summary.wallSeconds)))
        .field("fidelities", uint64_t{summary.fidelities.size()});
    out += summaryLine.str() + "\n";

    for (const auto &score : summary.fidelities) {
        JsonObjectWriter line;
        line.field("schema", uint64_t{SCHEMA_VERSION})
            .field("kind", "fidelity")
            .field("bits", hexU64(doubleBits(score.value)))
            // A readable mirror, ignored on decode: the bits win.
            .field("value", readableDouble(score.value))
            .field("acceptable", score.acceptable)
            .field("unit", score.unit);
        out += line.str() + "\n";
    }

    // The trailer carries the line count (truncation detection) and
    // an FNV-1a checksum of every preceding byte (single-bit payload
    // corruption detection -- e.g. a flipped character inside a
    // string field would otherwise decode to silently wrong data).
    JsonObjectWriter end;
    end.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "end")
        .field("lines", uint64_t{summary.fidelities.size() + 3})
        .field("fnv", hexU64(fnv1a(out.data(), out.size())));
    out += end.str() + "\n";
    return out;
}

/** Parse one record line, enforcing the schema version first. */
JsonValue
parseRecordLine(const std::string &line, size_t index)
{
    JsonValue value;
    try {
        value = parseJson(line);
    } catch (const JsonError &error) {
        throw StoreFormatError("line " + std::to_string(index + 1) +
                               ": " + error.what());
    }
    if (!value.isObject())
        throw StoreFormatError("line " + std::to_string(index + 1) +
                               ": record is not a JSON object");
    const JsonValue *schema = value.find("schema");
    if (!schema)
        throw StoreFormatError("line " + std::to_string(index + 1) +
                               ": record has no schema version");
    uint64_t version;
    try {
        version = schema->asU64();
    } catch (const JsonError &) {
        throw StoreFormatError("line " + std::to_string(index + 1) +
                               ": bad schema version");
    }
    if (version != SCHEMA_VERSION)
        throw StoreFormatError(
            "unsupported record schema version " +
            std::to_string(version) + " (this build supports " +
            std::to_string(SCHEMA_VERSION) + ")");
    return value;
}

/** The key of a parsed header line, which must be of kind
 *  @p expectedKind and carry its key's fingerprint. */
CellKey
decodeHeaderKey(const JsonValue &header, const char *expectedKind)
{
    std::string kind = header.at("kind").asString();
    if (kind != expectedKind)
        throw StoreFormatError("expected a '" + std::string(expectedKind) +
                               "' record, found '" + kind + "'");
    CellKey key = decodeCellKeyObject(header.at("key"));
    if (header.at("fingerprint").asString() != key.fingerprint())
        throw StoreFormatError("header fingerprint does not match its key");
    return key;
}

struct DecodedRecord
{
    CellKey key;
    unsigned lo = 0;
    unsigned hi = 0;
    core::CellSummary summary;
};

DecodedRecord
decodeRecord(const std::string &text, const char *expectedKind,
             const CellKey *expected)
{
    if (text.empty())
        throw StoreFormatError("empty record");
    if (text.back() != '\n')
        throw StoreFormatError(
            "truncated record (missing final newline)");
    auto lines = splitLines(text);
    try {
        if (lines.size() < 3)
            throw StoreFormatError("record has fewer than 3 lines");

        JsonValue header = parseRecordLine(lines[0], 0);
        DecodedRecord record;
        record.key = decodeHeaderKey(header, expectedKind);
        bool shard = std::string(expectedKind) == "shard";
        if (expected && !(record.key == *expected))
            throw StoreFormatError(
                "record key mismatch: stored " +
                record.key.canonical() + ", requested " +
                expected->canonical());
        if (shard) {
            record.lo = header.at("lo").asU32();
            record.hi = header.at("hi").asU32();
            if (record.lo >= record.hi ||
                record.hi > record.key.trials)
                throw StoreFormatError(
                    "bad shard range [" + std::to_string(record.lo) +
                    ", " + std::to_string(record.hi) + ") for " +
                    std::to_string(record.key.trials) + " trials");
        }

        JsonValue summaryLine = parseRecordLine(lines[1], 1);
        if (summaryLine.at("kind").asString() != "summary")
            throw StoreFormatError("second line is not the summary");
        core::CellSummary &summary = record.summary;
        summary.errors = record.key.errors;
        // The policy name is taken as stored, not validated against
        // the registry: records are self-describing, and a store may
        // hold cells produced under policies this process never
        // registered. Key matching above already prevents aliasing.
        summary.policy = record.key.policy;
        summary.trials = summaryLine.at("trials").asU32();
        summary.completed = summaryLine.at("completed").asU32();
        summary.crashed = summaryLine.at("crashed").asU32();
        summary.timedOut = summaryLine.at("timed_out").asU32();
        summary.totalInstructions =
            summaryLine.at("total_instructions").asU64();
        // Optional: absent in prune-off records (and everything
        // written before static pruning existed).
        if (const JsonValue *pruned = summaryLine.find("trials_pruned"))
            summary.trialsPruned = pruned->asU64();
        summary.wallSeconds = doubleFromBits(
            parseHexU64(summaryLine.at("wall_seconds_bits").asString()));
        uint64_t fidelityCount = summaryLine.at("fidelities").asU64();

        unsigned expectTrials =
            shard ? record.hi - record.lo : record.key.trials;
        if (summary.trials != expectTrials)
            throw StoreFormatError(
                "summary covers " + std::to_string(summary.trials) +
                " trials, record implies " +
                std::to_string(expectTrials));
        if (uint64_t{summary.completed} + summary.crashed +
                summary.timedOut != summary.trials)
            throw StoreFormatError("outcome tallies do not sum to the "
                                   "trial count");
        if (fidelityCount != summary.completed)
            throw StoreFormatError(
                "fidelity count does not match completed trials");
        if (lines.size() != fidelityCount + 3)
            throw StoreFormatError(
                "truncated record: expected " +
                std::to_string(fidelityCount + 3) + " lines, found " +
                std::to_string(lines.size()));

        summary.fidelities.reserve(fidelityCount);
        for (uint64_t i = 0; i < fidelityCount; ++i) {
            JsonValue line = parseRecordLine(lines[2 + i], 2 + i);
            if (line.at("kind").asString() != "fidelity")
                throw StoreFormatError(
                    "line " + std::to_string(3 + i) +
                    ": expected a fidelity record");
            workloads::FidelityScore score;
            score.value =
                doubleFromBits(parseHexU64(line.at("bits").asString()));
            score.acceptable = line.at("acceptable").asBool();
            score.unit = line.at("unit").asString();
            summary.fidelities.push_back(std::move(score));
        }

        JsonValue end = parseRecordLine(lines.back(), lines.size() - 1);
        if (end.at("kind").asString() != "end" ||
            end.at("lines").asU64() != lines.size())
            throw StoreFormatError("bad end-of-record trailer");
        size_t bodySize = text.size() - (lines.back().size() + 1);
        if (parseHexU64(end.at("fnv").asString()) !=
            fnv1a(text.data(), bodySize))
            throw StoreFormatError(
                "record checksum mismatch (corrupted contents)");
        return record;
    } catch (const JsonError &error) {
        // A structurally valid line with a missing/mistyped member.
        throw StoreFormatError(error.what());
    } catch (const std::invalid_argument &error) {
        // A malformed hex literal (seed, bits, ...).
        throw StoreFormatError(error.what());
    }
}

} // namespace

const char *
memoryModelName(sim::MemoryModel model)
{
    return model == sim::MemoryModel::Strict ? "strict" : "lenient";
}

std::string
encodeCellKeyObject(const CellKey &key)
{
    JsonObjectWriter writer;
    writer.field("workload", key.workload)
        .field("mode", key.policy)
        .field("errors", uint64_t{key.errors})
        .field("trials", uint64_t{key.trials})
        .field("seed", hexU64(key.seed))
        .field("budget_bits", hexU64(doubleBits(key.budgetFactor)))
        .field("memory_model", key.memoryModel)
        .field("program", key.programHash);
    // Only non-legacy policies carry a descriptor hash; records of
    // the legacy pair keep the exact pre-policy byte layout.
    if (!key.policyHash.empty())
        writer.field("policy", key.policyHash);
    return writer.str();
}

CellKey
decodeCellKeyObject(const JsonValue &object)
{
    CellKey key;
    key.workload = object.at("workload").asString();
    key.policy = object.at("mode").asString();
    key.errors = object.at("errors").asU32();
    key.trials = object.at("trials").asU32();
    key.seed = parseHexU64(object.at("seed").asString());
    key.budgetFactor =
        doubleFromBits(parseHexU64(object.at("budget_bits").asString()));
    key.memoryModel = object.at("memory_model").asString();
    key.programHash = object.at("program").asString();
    // Optional: absent in records written before the policy layer
    // (and in every legacy-policy record since).
    if (const JsonValue *hash = object.find("policy"))
        key.policyHash = hash->asString();
    return key;
}

std::string
encodeCellRecord(const CellKey &key, const core::CellSummary &summary)
{
    JsonObjectWriter header;
    header.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "cell")
        .field("fingerprint", key.fingerprint())
        .rawField("key", encodeCellKeyObject(key));
    return encodeBody(header.str(), summary);
}

std::string
encodeShardRecord(const CellKey &key, unsigned lo, unsigned hi,
                  const core::CellSummary &summary)
{
    JsonObjectWriter header;
    header.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "shard")
        .field("fingerprint", key.fingerprint())
        .field("lo", uint64_t{lo})
        .field("hi", uint64_t{hi})
        .rawField("key", encodeCellKeyObject(key));
    return encodeBody(header.str(), summary);
}

core::CellSummary
decodeCellRecord(const std::string &text, const CellKey *expected)
{
    return decodeRecord(text, "cell", expected).summary;
}

CellRecord
decodeCellRecordWithKey(const std::string &text, const CellKey *expected)
{
    DecodedRecord decoded = decodeRecord(text, "cell", expected);
    return CellRecord{std::move(decoded.key), std::move(decoded.summary)};
}

CellKey
decodeCellRecordKey(const std::string &headerLine)
{
    try {
        return decodeHeaderKey(parseRecordLine(headerLine, 0), "cell");
    } catch (const JsonError &error) {
        throw StoreFormatError(error.what());
    } catch (const std::invalid_argument &error) {
        throw StoreFormatError(error.what());
    }
}

ShardRecord
decodeShardRecord(const std::string &text, const CellKey *expected)
{
    DecodedRecord decoded = decodeRecord(text, "shard", expected);
    return ShardRecord{std::move(decoded.key), decoded.lo, decoded.hi,
                       std::move(decoded.summary)};
}

core::CellSummary
mergeShardSummaries(const CellKey &key, std::vector<ShardRecord> shards,
                    unsigned lo, unsigned hi)
{
    std::sort(shards.begin(), shards.end(),
              [](const ShardRecord &a, const ShardRecord &b) {
                  return a.lo < b.lo;
              });
    unsigned covered = lo;
    auto gapBefore = [&](unsigned next) {
        if (next != covered)
            throw StoreFormatError(
                "shards do not tile the range: trials [" +
                std::to_string(covered) + ", " + std::to_string(next) +
                ") are missing");
    };
    for (const auto &shard : shards) {
        gapBefore(shard.lo);
        covered = shard.hi;
    }
    gapBefore(hi);

    core::CellSummary merged;
    merged.errors = key.errors;
    merged.policy = key.policy;
    merged.trials = hi - lo;
    for (const auto &shard : shards) {
        merged.completed += shard.summary.completed;
        merged.crashed += shard.summary.crashed;
        merged.timedOut += shard.summary.timedOut;
        merged.trialsPruned += shard.summary.trialsPruned;
        merged.totalInstructions += shard.summary.totalInstructions;
        merged.wallSeconds += shard.summary.wallSeconds;
        merged.fidelities.insert(merged.fidelities.end(),
                                 shard.summary.fidelities.begin(),
                                 shard.summary.fidelities.end());
    }
    return merged;
}

core::CellSummary
mergeShardSummaries(const CellKey &key, std::vector<ShardRecord> shards)
{
    return mergeShardSummaries(key, std::move(shards), 0, key.trials);
}

} // namespace etc::store
