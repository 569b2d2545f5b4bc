/**
 * @file
 * Byte-stream to packet-stream parser for the modelled trace format.
 * Mirrors libipt's role: it maintains the last-IP decompression state
 * and can resynchronise at PSB boundaries after corruption or a ring
 * wrap that landed mid-packet.
 */
#ifndef EXIST_DECODE_PACKET_PARSER_H
#define EXIST_DECODE_PACKET_PARSER_H

#include <cstddef>
#include <cstdint>

#include "hwtrace/packet.h"

namespace exist {

/** A parsed packet. A kTnt6 Packet may carry the outcomes of several
 *  consecutive TNT bytes (up to 60 bits, oldest in bit 0): adjacent
 *  one-byte TNT packets are batched into one Packet so the hot decode
 *  loop pays its per-packet dispatch once per run, not once per six
 *  branches. Bit order is unchanged, so consumers that iterate
 *  tnt_count bits see exactly the unbatched stream. */
struct Packet {
    PacketOp op = PacketOp::kPad;
    std::uint64_t value = 0;     ///< IP / CR3 / TSC / CYC delta
    std::uint64_t tnt_bits = 0;  ///< for TNT packets
    std::uint8_t tnt_count = 0;
};

/** Streaming parser over a contiguous trace byte buffer. */
class PacketParser
{
  public:
    /** Decompression/progress state, snapshotable so an incremental
     *  consumer can roll back a parse attempt that ran out of bytes
     *  and retry it once more of the stream has arrived. `pos` is a
     *  stream offset, so a snapshot survives dropConsumed(). */
    struct State {
        std::size_t pos = 0;
        std::uint64_t last_ip = 0;
        std::size_t resyncs = 0;
        std::size_t truncated = 0;
    };

    PacketParser(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    /** Parse the next packet; false at end of stream. */
    bool next(Packet &out);

    /** Skip forward to just after the next PSB; false if none left. */
    bool resyncToPsb();

    /**
     * Point the parser at a grown (or relocated) copy of the same
     * byte stream; position and decompression state carry over. Used
     * by the streaming decoder, whose buffer grows between pumps.
     */
    void rebind(const std::uint8_t *data, std::size_t size)
    {
        data_ = data;
        size_ = size;
    }

    /**
     * The caller drops the consumed bytes before the current position
     * from the front of its buffer (and rebinds before the next parse);
     * returns their count. offset() and State keep counting from the
     * stream start.
     */
    std::size_t dropConsumed()
    {
        const std::size_t n = pos_;
        base_ += n;
        pos_ = 0;
        return n;
    }

    /**
     * Whether the current buffer end is the true end of the stream
     * (default) or more bytes may still arrive. When not final, a CYC
     * varint that runs off the buffer end is left unconsumed and
     * next() returns false instead of emitting a truncated value that
     * a longer buffer would have parsed differently.
     */
    void setFinal(bool final) { final_ = final; }

    State state() const
    {
        return State{offset(), last_ip_, resyncs_, truncated_};
    }
    void setState(const State &s)
    {
        pos_ = s.pos - base_;
        last_ip_ = s.last_ip;
        resyncs_ = s.resyncs;
        truncated_ = s.truncated;
    }

    /** Stream offset of the next unparsed byte. */
    std::size_t offset() const { return base_ + pos_; }
    /** Bytes parsed so far that are not in the current buffer. */
    std::size_t dropped() const { return base_; }
    std::size_t resyncCount() const { return resyncs_; }
    std::size_t truncated() const { return truncated_; }

  private:
    bool have(std::size_t n) const { return pos_ + n <= size_; }
    std::uint64_t readLe(std::size_t n);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;   ///< within data_
    std::size_t base_ = 0;  ///< stream offset of data_[0]
    std::uint64_t last_ip_ = 0;
    std::size_t resyncs_ = 0;
    std::size_t truncated_ = 0;
    bool final_ = true;
};

}  // namespace exist

#endif  // EXIST_DECODE_PACKET_PARSER_H
