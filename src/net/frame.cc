#include "net/frame.h"

#include <utility>

#include "net/wire.h"

namespace exist::net {

namespace {

/**
 * Fill in the envelope of a frame whose body was serialized after
 * kFrameHeaderBytes of reserved room: one buffer, no payload copy.
 */
std::vector<std::uint8_t>
seal(MsgType type, std::vector<std::uint8_t> out)
{
    std::size_t length = out.size() - kFrameHeaderBytes;
    const std::uint8_t *payload = out.data() + kFrameHeaderBytes;
    ByteWriter w(&out);
    w.patchU32(0, kFrameMagic);
    out[4] = kFrameVersion;
    out[5] = static_cast<std::uint8_t>(type);
    w.patchU32(6, static_cast<std::uint32_t>(length));
    w.patchU64(10, xxh64(payload, length));
    return out;
}

bool
parseBatch(ByteReader &r, TraceRegionBatchMsg *msg)
{
    msg->node = static_cast<NodeId>(r.getSVarint());
    msg->stream = r.getVarint();
    msg->batch_seq = r.getVarint();
    msg->total_batches = r.getVarint();
    std::uint64_t n = r.getVarint();
    if (!r.ok() || n != r.remaining())
        return false;
    const std::uint8_t *p = r.getBytes(n);
    if (p == nullptr)
        return false;
    msg->chunk.assign(p, p + n);
    return true;
}

bool
parseReport(ByteReader &r, BehaviorReportMsg *msg)
{
    msg->node = static_cast<NodeId>(r.getSVarint());
    msg->stream = r.getVarint();
    msg->degraded = r.getU8() != 0;
    msg->batches_spilled = r.getVarint();
    msg->summary = r.getString();
    return r.ok() && r.remaining() == 0;
}

bool
parseAck(ByteReader &r, AckMsg *msg)
{
    msg->node = static_cast<NodeId>(r.getSVarint());
    msg->stream = r.getVarint();
    msg->batch_seq = r.getVarint();
    msg->cumulative = r.getVarint();
    msg->window = static_cast<std::uint32_t>(r.getVarint());
    return r.ok() && r.remaining() == 0;
}

bool
parseHeartbeat(ByteReader &r, HeartbeatMsg *msg)
{
    msg->node = static_cast<NodeId>(r.getSVarint());
    msg->seq = r.getVarint();
    msg->queue_depth = r.getVarint();
    return r.ok() && r.remaining() == 0;
}

}  // namespace

const char *
decodeStatusName(DecodeStatus s)
{
    switch (s) {
      case DecodeStatus::kOk: return "ok";
      case DecodeStatus::kTruncated: return "truncated";
      case DecodeStatus::kBadMagic: return "bad-magic";
      case DecodeStatus::kBadVersion: return "bad-version";
      case DecodeStatus::kBadLength: return "bad-length";
      case DecodeStatus::kBadChecksum: return "bad-checksum";
      case DecodeStatus::kBadPayload: return "bad-payload";
    }
    return "?";
}

std::vector<std::uint8_t>
encodeFrame(const TraceRegionBatchMsg &msg)
{
    std::vector<std::uint8_t> out(kFrameHeaderBytes);
    ByteWriter w(&out);
    w.putSVarint(msg.node);
    w.putVarint(msg.stream);
    w.putVarint(msg.batch_seq);
    w.putVarint(msg.total_batches);
    w.putVarint(msg.chunk.size());
    w.putBytes(msg.chunk.data(), msg.chunk.size());
    return seal(MsgType::kTraceRegionBatch, std::move(out));
}

std::vector<std::uint8_t>
encodeFrame(const BehaviorReportMsg &msg)
{
    std::vector<std::uint8_t> out(kFrameHeaderBytes);
    ByteWriter w(&out);
    w.putSVarint(msg.node);
    w.putVarint(msg.stream);
    w.putU8(msg.degraded ? 1 : 0);
    w.putVarint(msg.batches_spilled);
    w.putString(msg.summary);
    return seal(MsgType::kBehaviorReport, std::move(out));
}

std::vector<std::uint8_t>
encodeFrame(const AckMsg &msg)
{
    std::vector<std::uint8_t> out(kFrameHeaderBytes);
    ByteWriter w(&out);
    w.putSVarint(msg.node);
    w.putVarint(msg.stream);
    w.putVarint(msg.batch_seq);
    w.putVarint(msg.cumulative);
    w.putVarint(msg.window);
    return seal(MsgType::kAck, std::move(out));
}

std::vector<std::uint8_t>
encodeFrame(const HeartbeatMsg &msg)
{
    std::vector<std::uint8_t> out(kFrameHeaderBytes);
    ByteWriter w(&out);
    w.putSVarint(msg.node);
    w.putVarint(msg.seq);
    w.putVarint(msg.queue_depth);
    return seal(MsgType::kHeartbeat, std::move(out));
}

DecodeStatus
decodeFrame(const std::uint8_t *data, std::size_t size, Frame *frame,
            std::size_t *consumed)
{
    *consumed = 0;
    if (size < kFrameHeaderBytes)
        return DecodeStatus::kTruncated;
    ByteReader header(data, kFrameHeaderBytes);
    if (header.getU32() != kFrameMagic)
        return DecodeStatus::kBadMagic;
    if (header.getU8() != kFrameVersion)
        return DecodeStatus::kBadVersion;
    std::uint8_t type = header.getU8();
    std::uint32_t length = header.getU32();
    std::uint64_t check = header.getU64();
    if (length > kMaxFramePayload)
        return DecodeStatus::kBadLength;
    if (size - kFrameHeaderBytes < length)
        return DecodeStatus::kTruncated;
    const std::uint8_t *payload = data + kFrameHeaderBytes;
    if (xxh64(payload, length) != check)
        return DecodeStatus::kBadChecksum;

    ByteReader body(payload, length);
    bool ok = false;
    switch (static_cast<MsgType>(type)) {
      case MsgType::kTraceRegionBatch:
        frame->type = MsgType::kTraceRegionBatch;
        ok = parseBatch(body, &frame->batch);
        break;
      case MsgType::kBehaviorReport:
        frame->type = MsgType::kBehaviorReport;
        ok = parseReport(body, &frame->report);
        break;
      case MsgType::kAck:
        frame->type = MsgType::kAck;
        ok = parseAck(body, &frame->ack);
        break;
      case MsgType::kHeartbeat:
        frame->type = MsgType::kHeartbeat;
        ok = parseHeartbeat(body, &frame->heartbeat);
        break;
      default:
        return DecodeStatus::kBadPayload;
    }
    if (!ok)
        return DecodeStatus::kBadPayload;
    *consumed = kFrameHeaderBytes + length;
    return DecodeStatus::kOk;
}

}  // namespace exist::net
