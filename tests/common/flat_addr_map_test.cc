/**
 * @file
 * Unit tests for FlatAddrMap: probing past collisions, backward-shift
 * erase across the table's wrap-around, growth, the reserved empty key,
 * and a randomized comparison against std::unordered_map.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/flat_addr_map.hh"
#include "common/random.hh"

namespace padc
{
namespace
{

/** The first @p n line addresses whose home cell in @p map is @p home. */
std::vector<Addr>
keysWithHome(const FlatAddrMap &map, std::size_t home, std::size_t n)
{
    std::vector<Addr> keys;
    for (Addr line = 1; keys.size() < n; ++line) {
        if (map.homeOf(lineToAddr(line)) == home)
            keys.push_back(lineToAddr(line));
    }
    return keys;
}

TEST(FlatAddrMapTest, CollidingKeysAreAllFound)
{
    FlatAddrMap map;
    const std::vector<Addr> keys = keysWithHome(map, 3, 5);
    for (std::uint32_t i = 0; i < keys.size(); ++i)
        EXPECT_TRUE(map.tryEmplace(keys[i], i).second);
    EXPECT_EQ(map.size(), keys.size());
    for (std::uint32_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(map.find(keys[i]), i);
    // A second insert of a present key keeps the first value.
    const auto [value, inserted] = map.tryEmplace(keys[2], 99);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, 2u);
    // An absent key with the same home is missing, not a false match.
    EXPECT_EQ(map.find(keysWithHome(map, 3, 6).back()), FlatAddrMap::kMissing);
}

TEST(FlatAddrMapTest, EraseShiftsBackAcrossTheWrap)
{
    FlatAddrMap map;
    const std::size_t last = map.capacity() - 1;
    // Three keys homed at the last cell fill it and wrap into cells 0
    // and 1; a key homed at cell 0 lands in cell 2.
    const std::vector<Addr> wrapped = keysWithHome(map, last, 3);
    const Addr at_zero = keysWithHome(map, 0, 1).front();
    for (std::uint32_t i = 0; i < wrapped.size(); ++i)
        map.tryEmplace(wrapped[i], i);
    map.tryEmplace(at_zero, 7);

    // Erasing the run's head must pull every later entry back (none may
    // be cut off from its home by the hole) and leave no tombstone.
    EXPECT_TRUE(map.erase(wrapped[0]));
    EXPECT_EQ(map.find(wrapped[0]), FlatAddrMap::kMissing);
    EXPECT_EQ(map.find(wrapped[1]), 1u);
    EXPECT_EQ(map.find(wrapped[2]), 2u);
    EXPECT_EQ(map.find(at_zero), 7u);

    EXPECT_TRUE(map.erase(wrapped[2]));
    EXPECT_EQ(map.find(wrapped[1]), 1u);
    EXPECT_EQ(map.find(at_zero), 7u);
    EXPECT_FALSE(map.erase(wrapped[2]));
    EXPECT_EQ(map.size(), 2u);

    EXPECT_TRUE(map.erase(wrapped[1]));
    EXPECT_TRUE(map.erase(at_zero));
    EXPECT_TRUE(map.empty());
}

TEST(FlatAddrMapTest, GrowsAndKeepsEveryEntry)
{
    FlatAddrMap map;
    const std::size_t initial = map.capacity();
    constexpr std::uint32_t kKeys = 5000;
    for (std::uint32_t i = 0; i < kKeys; ++i)
        ASSERT_TRUE(map.tryEmplace(lineToAddr(i * 3 + 1), i).second);
    EXPECT_EQ(map.size(), kKeys);
    EXPECT_GT(map.capacity(), initial);
    EXPECT_GE(map.capacity(), 2 * map.size());
    for (std::uint32_t i = 0; i < kKeys; ++i)
        ASSERT_EQ(map.find(lineToAddr(i * 3 + 1)), i);

    // The constructor sizes the table up front: no rehash until it is
    // full.
    FlatAddrMap sized(100);
    const std::size_t cap = sized.capacity();
    for (std::uint32_t i = 0; i < 100; ++i)
        sized.tryEmplace(lineToAddr(i), i);
    EXPECT_EQ(sized.capacity(), cap);
}

TEST(FlatAddrMapTest, InvalidAddrKeyIsRejected)
{
    FlatAddrMap map;
    EXPECT_THROW(map.tryEmplace(kInvalidAddr, 1), std::invalid_argument);
    EXPECT_TRUE(map.empty());
    // Empty cells hold kInvalidAddr; looking it up must not match one.
    EXPECT_EQ(map.find(kInvalidAddr), FlatAddrMap::kMissing);
    EXPECT_FALSE(map.contains(kInvalidAddr));
    EXPECT_FALSE(map.erase(kInvalidAddr));
    map.tryEmplace(0x40, 5);
    EXPECT_EQ(map.find(kInvalidAddr), FlatAddrMap::kMissing);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatAddrMapTest, MatchesUnorderedMapUnderRandomChurn)
{
    // A small key space keeps the table dense with long, wrapping probe
    // runs while keys come and go.
    Rng rng(0xF1A7);
    FlatAddrMap map;
    std::unordered_map<Addr, std::uint32_t> model;
    for (std::uint32_t step = 0; step < 200000; ++step) {
        const Addr key = lineToAddr(rng.nextBelow(96));
        if (rng.chance(0.5)) {
            const auto [value, inserted] = map.tryEmplace(key, step);
            const auto [it, model_inserted] = model.try_emplace(key, step);
            ASSERT_EQ(inserted, model_inserted);
            ASSERT_EQ(*value, it->second);
        } else {
            ASSERT_EQ(map.erase(key), model.erase(key) == 1);
        }
        ASSERT_EQ(map.size(), model.size());
    }
    for (Addr line = 0; line < 96; ++line) {
        const auto it = model.find(lineToAddr(line));
        EXPECT_EQ(map.find(lineToAddr(line)),
                  it == model.end() ? FlatAddrMap::kMissing : it->second);
    }
}

} // namespace
} // namespace padc
