// Compile-time guarantees of the strong unit/frame types. The "tests" here
// are static_asserts: each one encodes a call that used to be a silent
// runtime bug (radians into a degree slot, a TEME vector into an ECEF
// consumer) and proves it is now ill-formed. If any assertion fires, this
// translation unit fails to build — the negative-compile test the unit
// layer promises.

#include <gtest/gtest.h>

#include <type_traits>

#include "geo/frame_vec.hpp"
#include "geo/frames.hpp"
#include "geo/geodetic.hpp"
#include "geo/topocentric.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "ground/obstruction_mask.hpp"
#include "time/julian_date.hpp"

namespace starlab::geo {
namespace {

using namespace starlab::geo::literals;

template <class A, class B>
concept Addable = requires(A a, B b) { a + b; };

// --- units: no implicit conversion in or out, no cross-unit arithmetic ----
static_assert(!std::is_convertible_v<double, Deg>,
              "raw doubles must not silently become degrees");
static_assert(!std::is_convertible_v<double, Rad>);
static_assert(!std::is_convertible_v<double, Km>);
static_assert(!std::is_convertible_v<Deg, double>,
              "degrees leave only via .value()");
static_assert(!std::is_convertible_v<Deg, Rad>,
              "degree->radian needs an explicit to_rad()");
static_assert(!std::is_convertible_v<Rad, Deg>);
static_assert(!Addable<Deg, Rad>, "mixed-unit sums must not compile");
static_assert(!Addable<Deg, Km>);
static_assert(!Addable<Deg, double>);
static_assert(Addable<Deg, Deg>);

// --- frames: TEME and ECEF are distinct types ----------------------------
static_assert(!std::is_convertible_v<TemeKm, EcefKm>,
              "frame changes only via teme_to_ecef/ecef_to_teme");
static_assert(!std::is_convertible_v<EcefKm, TemeKm>);
static_assert(!std::is_convertible_v<Vec3, TemeKm>,
              "raw vectors must be tagged explicitly");
static_assert(!std::is_convertible_v<Vec3, EcefKm>);
static_assert(!Addable<TemeKm, EcefKm>, "cross-frame sums must not compile");
static_assert(!Addable<TemeKm, Vec3>);
static_assert(Addable<EcefKm, EcefKm>);

// --- the historically dangerous call sites -------------------------------
// look_angles refuses a TEME position or an untagged vector, from either
// observer form. The overload set is wrapped in a SFINAE-friendly lambda so
// the traits see every overload.
constexpr auto kLookAngles = [](const auto& observer, const auto& target)
    -> decltype(look_angles(observer, target)) {
  return look_angles(observer, target);
};
static_assert(std::is_invocable_v<decltype(kLookAngles), const Geodetic&,
                                  const EcefKm&>);
static_assert(std::is_invocable_v<decltype(kLookAngles), const ObserverFrame&,
                                  const EcefKm&>);
static_assert(
    !std::is_invocable_v<decltype(kLookAngles), const Geodetic&,
                         const TemeKm&>,
    "a TEME position must pass through teme_to_ecef before look_angles");
static_assert(!std::is_invocable_v<decltype(kLookAngles), const Geodetic&,
                                   const Vec3&>);
static_assert(!std::is_invocable_v<decltype(kLookAngles), const ObserverFrame&,
                                   const TemeKm&>);
static_assert(!std::is_invocable_v<decltype(kLookAngles), const ObserverFrame&,
                                   const Vec3&>);

// sky_separation refuses raw doubles (degrees? radians? — exactly the
// ambiguity the wrapper removes).
static_assert(
    std::is_invocable_v<decltype(sky_separation), Deg, Deg, Deg, Deg>);
static_assert(!std::is_invocable_v<decltype(sky_separation), double, double,
                                   double, double>);
static_assert(!std::is_invocable_v<decltype(sky_separation), Rad, Rad, Rad,
                                   Rad>);

// The frame bridges only accept the frame they convert *from*.
static_assert(std::is_invocable_v<decltype(teme_to_ecef), const TemeKm&,
                                  const time::JulianDate&>);
static_assert(!std::is_invocable_v<decltype(teme_to_ecef), const EcefKm&,
                                   const time::JulianDate&>,
              "teme_to_ecef applied twice must not compile");
static_assert(!std::is_invocable_v<decltype(ecef_to_teme), const TemeKm&,
                                   const time::JulianDate&>);

// ObstructionMask speaks degrees only.
template <class M, class A, class E>
concept MaskBlockable = requires(const M& m, A a, E e) { m.blocked(a, e); };
static_assert(MaskBlockable<ground::ObstructionMask, Deg, Deg>);
static_assert(!MaskBlockable<ground::ObstructionMask, double, double>,
              "raw-double azimuth/elevation must not reach the mask");
static_assert(!MaskBlockable<ground::ObstructionMask, Rad, Rad>);

// --- zero-overhead claims ------------------------------------------------
static_assert(sizeof(Deg) == sizeof(double));
static_assert(sizeof(TemeKm) == sizeof(Vec3));
static_assert(std::is_trivially_copyable_v<Deg>);
static_assert(std::is_trivially_copyable_v<EcefKm>);

// --- constexpr arithmetic works where it should --------------------------
static_assert((90.0_deg + 10.0_deg).value() == 100.0);
static_assert((2.0 * 45.0_deg).value() == 90.0);
static_assert(90.0_deg / 45.0_deg == 2.0);  // like/like ratio is unitless
static_assert(to_deg(to_rad(Deg(180.0))).value() > 179.999999);

TEST(UnitSafety, RuntimeValuesRoundTrip) {
  const Deg d(123.25);
  EXPECT_DOUBLE_EQ(d.value(), 123.25);
  EXPECT_DOUBLE_EQ(to_deg(to_rad(d)).value(), 123.25);
  const EcefKm v{3.0, 4.0, 12.0};
  EXPECT_DOUBLE_EQ(v.norm(), 13.0);
  EXPECT_DOUBLE_EQ(v.raw().x, v.x());
}

}  // namespace
}  // namespace starlab::geo
