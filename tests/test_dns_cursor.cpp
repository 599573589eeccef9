// dns::Cursor: bounds-checked reads, RDATA windows, compression-pointer
// marks, plus randomized robustness — truncated wire inputs and
// adversarial pointer graphs must never read out of bounds (ASan-checked
// via the sanitizer build) and must either decode or cleanly poison.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "dns/cursor.h"
#include "dns/message.h"
#include "dns/name.h"
#include "net/ipv4.h"

namespace dnsguard::dns {
namespace {

Bytes bytes(std::initializer_list<int> vals) {
  Bytes out;
  for (int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// --- scalar reads ----------------------------------------------------------

TEST(Cursor, BigEndianReads) {
  Bytes w = bytes({0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF});
  Cursor c{BytesView(w)};
  EXPECT_EQ(c.u8(), 0xABu);
  EXPECT_EQ(c.u16(), 0x1234u);
  EXPECT_EQ(c.u32(), 0xDEADBEEFu);
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(c.at_end());
}

TEST(Cursor, UnderflowPoisonsAndStaysPoisoned) {
  Bytes w = bytes({0x01});
  Cursor c{BytesView(w)};
  EXPECT_EQ(c.u16(), 0u);  // needs 2 bytes, only 1 present
  EXPECT_FALSE(c.ok());
  // Poison is sticky: the byte that *is* there no longer reads.
  EXPECT_EQ(c.u8(), 0u);
  EXPECT_FALSE(c.ok());
}

TEST(Cursor, RawAndCharsReadExactSpans) {
  Bytes w = bytes({'a', 'b', 'c', 'd'});
  Cursor c{BytesView(w)};
  BytesView head = c.raw(2);
  ASSERT_EQ(head.size(), 2u);
  EXPECT_EQ(head[0], 'a');
  EXPECT_EQ(c.chars(2), "cd");
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(c.at_end());
}

TEST(Cursor, SkipPastEndPoisons) {
  Bytes w = bytes({1, 2, 3});
  Cursor c{BytesView(w)};
  c.skip(2);
  EXPECT_TRUE(c.ok());
  c.skip(2);
  EXPECT_FALSE(c.ok());
}

// --- RDATA windows ---------------------------------------------------------

TEST(Cursor, WindowFencesReads) {
  Bytes w = bytes({0x11, 0x22, 0x33, 0x44});
  Cursor c{BytesView(w)};
  ASSERT_TRUE(c.push_window(2));
  EXPECT_EQ(c.u16(), 0x1122u);
  EXPECT_TRUE(c.at_limit());
  // A read past the window fails even though the message has more bytes.
  EXPECT_EQ(c.u8(), 0u);
  EXPECT_FALSE(c.ok());
}

TEST(Cursor, WindowLongerThanRemainingFails) {
  Bytes w = bytes({1, 2});
  Cursor c{BytesView(w)};
  EXPECT_FALSE(c.push_window(3));
  EXPECT_FALSE(c.ok());
}

TEST(Cursor, PopWindowRestoresMessageLimit) {
  Bytes w = bytes({1, 2, 3});
  Cursor c{BytesView(w)};
  ASSERT_TRUE(c.push_window(1));
  (void)c.u8();
  EXPECT_TRUE(c.at_limit());
  c.pop_window();
  EXPECT_FALSE(c.at_end());
  EXPECT_EQ(c.u16(), 0x0203u);
  EXPECT_TRUE(c.at_end());
}

// --- compression-pointer chasing -------------------------------------------

TEST(Cursor, JumpBackMustGoStrictlyBackwards) {
  Bytes w = bytes({1, 2, 3, 4});
  Cursor c{BytesView(w)};
  c.skip(2);
  EXPECT_FALSE(Cursor{BytesView(w)}.jump_back(0));  // pos 0: not backwards
  EXPECT_TRUE(c.jump_back(0));
  EXPECT_EQ(c.u8(), 1u);
}

TEST(Cursor, JumpForwardPoisons) {
  Bytes w = bytes({1, 2, 3, 4});
  Cursor c{BytesView(w)};
  c.skip(1);
  EXPECT_FALSE(c.jump_back(3));
  EXPECT_FALSE(c.ok());
}

TEST(Cursor, JumpEscapesWindowAndResumeRestoresIt) {
  Bytes w = bytes({0xAA, 0xBB, 0xCC, 0xDD, 0xEE});
  Cursor c{BytesView(w)};
  c.skip(3);
  ASSERT_TRUE(c.push_window(1));
  Cursor::Mark m = c.mark();
  // Jump back to the message head: reads there are legal even though the
  // window only covered one byte (pointers may target any earlier byte).
  ASSERT_TRUE(c.jump_back(0));
  EXPECT_EQ(c.u16(), 0xAABBu);
  EXPECT_TRUE(c.ok());
  c.resume(m);
  EXPECT_EQ(c.u8(), 0xDDu);
  EXPECT_TRUE(c.at_limit());
}

TEST(Cursor, ManualFailIsSticky) {
  Bytes w = bytes({1, 2});
  Cursor c{BytesView(w)};
  c.fail();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.u8(), 0u);
}

// --- randomized robustness -------------------------------------------------

// Every truncation of a valid compressed name either decodes (only the
// full length can) or returns nullopt with the cursor poisoned or short —
// never an out-of-bounds read (ASan enforces that part).
TEST(CursorFuzz, TruncatedNamesNeverOverread) {
  ByteWriter w;
  NameCompressor comp;
  comp.write(w, *DomainName::parse("www.example.com"));
  comp.write(w, *DomainName::parse("mail.example.com"));  // pointer suffix
  Bytes wire(w.view().begin(), w.view().end());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    BytesView head(wire.data(), cut);
    Cursor c{head};
    DomainName first;
    if (!read_name(c, first)) continue;
    (void)read_name(c, first);  // second name may also truncate; must not crash
  }
  // The untruncated wire decodes both names.
  Cursor c{BytesView(wire)};
  DomainName first;
  DomainName second;
  ASSERT_TRUE(read_name(c, first));
  ASSERT_TRUE(read_name(c, second));
  EXPECT_EQ(second.to_string(), "mail.example.com.");
}

// Random label/pointer soup: bytes that look like length-prefixed labels
// and compression pointers wired to random targets. read_name must
// terminate (jump cap + strictly-backwards rule) and never overread.
TEST(CursorFuzz, RandomPointerGraphsTerminate) {
  Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes wire;
    const std::size_t len = 2 + rng.bounded(60);
    while (wire.size() < len) {
      switch (rng.bounded(3)) {
        case 0: {  // plausible label
          std::size_t lab = 1 + rng.bounded(7);
          wire.push_back(static_cast<std::uint8_t>(lab));
          for (std::size_t i = 0; i < lab; ++i) {
            wire.push_back(static_cast<std::uint8_t>('a' + rng.bounded(26)));
          }
          break;
        }
        case 1: {  // pointer to a random (often invalid) target
          std::size_t target = rng.bounded(len);
          wire.push_back(static_cast<std::uint8_t>(0xC0 | (target >> 8)));
          wire.push_back(static_cast<std::uint8_t>(target & 0xFF));
          break;
        }
        default:  // raw garbage byte (may be a bogus length)
          wire.push_back(static_cast<std::uint8_t>(rng.next()));
      }
    }
    std::size_t start = rng.bounded(wire.size());
    Cursor c{BytesView(wire)};
    c.skip(start);
    DomainName name;
    if (read_name(c, name)) {
      // Every label and the whole name respect RFC 1035's limits.
      EXPECT_LE(name.wire_length(), kMaxNameLength);
      for (std::size_t at = 0; at < name.wire().size();) {
        const std::size_t len = static_cast<std::uint8_t>(name.wire()[at]);
        EXPECT_GE(len, 1u);
        EXPECT_LE(len, kMaxLabelLength);
        at += 1 + len;
      }
    }
  }
}

// Whole-message fuzz through Message::decode: random mutations of a valid
// response (bit flips, truncations, count inflation) decode or reject but
// never crash. Mirrors the spoofed-response hardening the guard needs.
TEST(CursorFuzz, MutatedMessagesNeverCrashDecode) {
  Message msg;
  msg.header.id = 0x1234;
  msg.header.qr = true;
  msg.header.aa = true;
  msg.header.rd = true;
  msg.header.ra = true;
  Question q;
  q.qname = *DomainName::parse("fuzz.example.com");
  q.qtype = RrType::A;
  msg.questions.push_back(q);
  msg.answers.push_back(
      ResourceRecord::a(q.qname, net::Ipv4Address(10, 0, 0, 1), 300));
  Bytes wire = msg.encode();

  Rng rng(0xF00D);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes mut = wire;
    const std::size_t flips = 1 + rng.bounded(6);
    for (std::size_t i = 0; i < flips; ++i) {
      std::size_t at = rng.bounded(mut.size());
      mut[at] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    if (rng.chance(0.3)) mut.resize(rng.bounded(mut.size()) + 1);
    (void)Message::decode(BytesView(mut));  // verdict free; crash is the bug
  }
}

}  // namespace
}  // namespace dnsguard::dns
