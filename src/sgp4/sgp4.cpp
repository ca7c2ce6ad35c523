#include "sgp4/sgp4.hpp"

#include <cmath>

#include "check/hotpath.hpp"
#include "geo/angles.hpp"
#include "geo/wgs.hpp"

namespace starlab::sgp4 {

namespace {

// WGS-72 gravity constants in SGP4's canonical units.
constexpr double kMu = geo::kWgs72.mu_km3_s2;
constexpr double kRe = geo::kWgs72.radius_km;
constexpr double kJ2 = geo::kWgs72.j2;
constexpr double kJ3 = geo::kWgs72.j3;
constexpr double kJ4 = geo::kWgs72.j4;
constexpr double kJ3OverJ2 = kJ3 / kJ2;
const double kXke = 60.0 / std::sqrt(kRe * kRe * kRe / kMu);  // sqrt(mu) in ER^1.5/min
constexpr double kTwoThirds = 2.0 / 3.0;
constexpr double kTwoPi = geo::kTwoPi;

}  // namespace

CommonConstants init_common_constants(const tle::Tle& tle) {
  CommonConstants c;
  c.epoch = tle.epoch_jd();
  c.ecco = tle.eccentricity;
  c.inclo = geo::deg_to_rad(tle.inclination_deg);
  c.nodeo = geo::deg_to_rad(tle.raan_deg);
  c.argpo = geo::deg_to_rad(tle.arg_perigee_deg);
  c.mo = geo::deg_to_rad(tle.mean_anomaly_deg);
  c.bstar = tle.bstar;

  if (c.ecco < 0.0 || c.ecco >= 1.0) {
    throw Sgp4Error("TLE eccentricity outside [0,1)");
  }
  const double no_kozai =
      tle.mean_motion_rev_per_day * kTwoPi / time::kMinutesPerDay;  // rad/min
  if (no_kozai <= 0.0) {
    throw Sgp4Error("TLE mean motion must be positive");
  }

  // ---- initl: recover the Brouwer mean motion from the Kozai value. ----
  const double eccsq = c.ecco * c.ecco;
  const double omeosq = 1.0 - eccsq;
  const double rteosq = std::sqrt(omeosq);
  const double cosio = std::cos(c.inclo);
  const double cosio2 = cosio * cosio;

  const double ak = std::pow(kXke / no_kozai, kTwoThirds);
  const double d1 = 0.75 * kJ2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq);
  double del = d1 / (ak * ak);
  const double adel =
      ak * (1.0 - del * del - del * (1.0 / 3.0 + 134.0 * del * del / 81.0));
  del = d1 / (adel * adel);
  c.no_unkozai = no_kozai / (1.0 + del);

  c.ao = std::pow(kXke / c.no_unkozai, kTwoThirds);
  const double sinio = std::sin(c.inclo);
  const double po = c.ao * omeosq;
  const double con42 = 1.0 - 5.0 * cosio2;
  c.con41 = -con42 - 2.0 * cosio2;  // == 3*cos^2(i) - 1
  const double posq = po * po;
  const double rp = c.ao * (1.0 - c.ecco);

  if (kTwoPi / c.no_unkozai >= 225.0) {
    throw Sgp4Error("deep-space (period >= 225 min) element sets are not "
                    "supported; Starlink shells are all near-Earth");
  }

  // ---- sgp4init: drag and periodic coefficients. ----
  c.isimp = rp < (220.0 / kRe + 1.0);

  // Atmospheric-density reference altitudes (s4 / q0 parameters).
  double sfour = 78.0 / kRe + 1.0;
  double qzms24 = std::pow((120.0 - 78.0) / kRe, 4.0);
  const double perige = (rp - 1.0) * kRe;
  if (perige < 156.0) {
    sfour = perige - 78.0;
    if (perige < 98.0) sfour = 20.0;
    qzms24 = std::pow((120.0 - sfour) / kRe, 4.0);
    sfour = sfour / kRe + 1.0;
  }

  const double pinvsq = 1.0 / posq;
  const double tsi = 1.0 / (c.ao - sfour);
  c.eta = c.ao * c.ecco * tsi;
  const double etasq = c.eta * c.eta;
  const double eeta = c.ecco * c.eta;
  const double psisq = std::fabs(1.0 - etasq);
  const double coef = qzms24 * std::pow(tsi, 4.0);
  const double coef1 = coef / std::pow(psisq, 3.5);

  const double cc2 =
      coef1 * c.no_unkozai *
      (c.ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq)) +
       0.375 * kJ2 * tsi / psisq * c.con41 * (8.0 + 3.0 * etasq * (8.0 + etasq)));
  c.cc1 = c.bstar * cc2;
  double cc3 = 0.0;
  if (c.ecco > 1.0e-4) {
    cc3 = -2.0 * coef * tsi * kJ3OverJ2 * c.no_unkozai * sinio / c.ecco;
  }
  c.x1mth2 = 1.0 - cosio2;
  c.cc4 = 2.0 * c.no_unkozai * coef1 * c.ao * omeosq *
          (c.eta * (2.0 + 0.5 * etasq) + c.ecco * (0.5 + 2.0 * etasq) -
           kJ2 * tsi / (c.ao * psisq) *
               (-3.0 * c.con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta)) +
                0.75 * c.x1mth2 * (2.0 * etasq - eeta * (1.0 + etasq)) *
                    std::cos(2.0 * c.argpo)));
  c.cc5 = 2.0 * coef1 * c.ao * omeosq *
          (1.0 + 2.75 * (etasq + eeta) + eeta * etasq);

  const double cosio4 = cosio2 * cosio2;
  const double temp1 = 1.5 * kJ2 * pinvsq * c.no_unkozai;
  const double temp2 = 0.5 * temp1 * kJ2 * pinvsq;
  const double temp3 = -0.46875 * kJ4 * pinvsq * pinvsq * c.no_unkozai;
  c.mdot = c.no_unkozai + 0.5 * temp1 * rteosq * c.con41 +
           0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4);
  c.argpdot = -0.5 * temp1 * con42 +
              0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4) +
              temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4);
  const double xhdot1 = -temp1 * cosio;
  c.nodedot = xhdot1 + (0.5 * temp2 * (4.0 - 19.0 * cosio2) +
                        2.0 * temp3 * (3.0 - 7.0 * cosio2)) *
                           cosio;

  c.omgcof = c.bstar * cc3 * std::cos(c.argpo);
  c.xmcof = 0.0;
  if (c.ecco > 1.0e-4) c.xmcof = -kTwoThirds * coef * c.bstar / eeta;
  c.nodecf = 3.5 * omeosq * xhdot1 * c.cc1;
  c.t2cof = 1.5 * c.cc1;

  // xlcof has a singularity at i == 180 deg; use the reference guard.
  if (std::fabs(cosio + 1.0) > 1.5e-12) {
    c.xlcof = -0.25 * kJ3OverJ2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio);
  } else {
    c.xlcof = -0.25 * kJ3OverJ2 * sinio * (3.0 + 5.0 * cosio) / 1.5e-12;
  }
  c.aycof = -0.5 * kJ3OverJ2 * sinio;
  c.delmo = std::pow(1.0 + c.eta * std::cos(c.mo), 3.0);
  c.sinmao = std::sin(c.mo);
  c.x7thm1 = 7.0 * cosio2 - 1.0;

  if (!c.isimp) {
    const double cc1sq = c.cc1 * c.cc1;
    c.d2 = 4.0 * c.ao * tsi * cc1sq;
    const double temp = c.d2 * tsi * c.cc1 / 3.0;
    c.d3 = (17.0 * c.ao + sfour) * temp;
    c.d4 = 0.5 * temp * c.ao * tsi * (221.0 * c.ao + 31.0 * sfour) * c.cc1;
    c.t3cof = c.d2 + 2.0 * cc1sq;
    c.t4cof = 0.25 * (3.0 * c.d3 + c.cc1 * (12.0 * c.d2 + 10.0 * cc1sq));
    c.t5cof = 0.2 * (3.0 * c.d4 + 12.0 * c.cc1 * c.d3 + 6.0 * c.d2 * c.d2 +
                     15.0 * cc1sq * (2.0 * c.d2 + cc1sq));
  }
  return c;
}

STARLAB_HOTPATH PropagateStatus propagate_common(const CommonConstants& c,
                                                 double t,
                                                 StateVector& out) noexcept {
  // ---- Secular gravity and atmospheric drag. ----
  const double xmdf = c.mo + c.mdot * t;
  const double argpdf = c.argpo + c.argpdot * t;
  const double nodedf = c.nodeo + c.nodedot * t;
  double argpm = argpdf;
  double mm = xmdf;
  const double t2 = t * t;
  double nodem = nodedf + c.nodecf * t2;
  double tempa = 1.0 - c.cc1 * t;
  double tempe = c.bstar * c.cc4 * t;
  double templ = c.t2cof * t2;

  if (!c.isimp) {
    const double delomg = c.omgcof * t;
    const double delmtemp = 1.0 + c.eta * std::cos(xmdf);
    const double delm = c.xmcof * (delmtemp * delmtemp * delmtemp - c.delmo);
    const double temp = delomg + delm;
    mm = xmdf + temp;
    argpm = argpdf - temp;
    const double t3 = t2 * t;
    const double t4 = t3 * t;
    tempa = tempa - c.d2 * t2 - c.d3 * t3 - c.d4 * t4;
    tempe = tempe + c.bstar * c.cc5 * (std::sin(mm) - c.sinmao);
    templ = templ + c.t3cof * t3 + t4 * (c.t4cof + t * c.t5cof);
  }

  double nm = c.no_unkozai;
  double em = c.ecco;
  const double inclm = c.inclo;

  // c.ao holds the exact bits of pow(xke / no_unkozai, 2/3), so the batch
  // hot loop skips the pow the reference implementation re-evaluates here.
  const double am = c.ao * tempa * tempa;
  nm = kXke / std::pow(am, 1.5);
  em = em - tempe;

  if (em >= 1.0 || em < -0.001) {
    return PropagateStatus::kEccentricityOutOfRange;
  }
  if (em < 1.0e-6) em = 1.0e-6;

  mm = mm + c.no_unkozai * templ;
  double xlm = mm + argpm + nodem;
  nodem = std::fmod(nodem, kTwoPi);
  argpm = std::fmod(argpm, kTwoPi);
  xlm = std::fmod(xlm, kTwoPi);
  mm = std::fmod(xlm - argpm - nodem, kTwoPi);

  // ---- Long-period periodics. ----
  const double sinip = std::sin(inclm);
  const double cosip = std::cos(inclm);
  const double ep = em;
  const double xincp = inclm;
  const double argpp = argpm;
  const double nodep = nodem;
  const double mp = mm;

  const double axnl = ep * std::cos(argpp);
  double temp = 1.0 / (am * (1.0 - ep * ep));
  const double aynl = ep * std::sin(argpp) + temp * c.aycof;
  const double xl = mp + argpp + nodep + temp * c.xlcof * axnl;

  // ---- Kepler's equation (modified for long-period terms). ----
  const double u = std::fmod(xl - nodep, kTwoPi);
  double eo1 = u;
  double tem5 = 9999.9;
  double sineo1 = 0.0, coseo1 = 0.0;
  int ktr = 1;
  while (std::fabs(tem5) >= 1.0e-12 && ktr <= 10) {
    sineo1 = std::sin(eo1);
    coseo1 = std::cos(eo1);
    tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl;
    tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5;
    if (std::fabs(tem5) >= 0.95) tem5 = tem5 > 0.0 ? 0.95 : -0.95;
    eo1 += tem5;
    ++ktr;
  }

  // ---- Short-period periodics. ----
  const double ecose = axnl * coseo1 + aynl * sineo1;
  const double esine = axnl * sineo1 - aynl * coseo1;
  const double el2 = axnl * axnl + aynl * aynl;
  const double pl = am * (1.0 - el2);
  if (pl < 0.0) {
    return PropagateStatus::kNegativeSemiLatusRectum;
  }

  const double rl = am * (1.0 - ecose);
  const double rdotl = std::sqrt(am) * esine / rl;
  const double rvdotl = std::sqrt(pl) / rl;
  const double betal = std::sqrt(1.0 - el2);
  temp = esine / (1.0 + betal);
  const double sinu = am / rl * (sineo1 - aynl - axnl * temp);
  const double cosu = am / rl * (coseo1 - axnl + aynl * temp);
  double su = std::atan2(sinu, cosu);
  const double sin2u = (cosu + cosu) * sinu;
  const double cos2u = 1.0 - 2.0 * sinu * sinu;
  temp = 1.0 / pl;
  const double temp1 = 0.5 * kJ2 * temp;
  const double temp2 = temp1 * temp;

  const double mrt =
      rl * (1.0 - 1.5 * temp2 * betal * c.con41) + 0.5 * temp1 * c.x1mth2 * cos2u;
  su = su - 0.25 * temp2 * c.x7thm1 * sin2u;
  const double xnode = nodep + 1.5 * temp2 * cosip * sin2u;
  const double xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u;
  const double mvt = rdotl - nm * temp1 * c.x1mth2 * sin2u / kXke;
  const double rvdot =
      rvdotl + nm * temp1 * (c.x1mth2 * cos2u + 1.5 * c.con41) / kXke;

  // ---- Orientation vectors and final state. ----
  const double sinsu = std::sin(su);
  const double cossu = std::cos(su);
  const double snod = std::sin(xnode);
  const double cnod = std::cos(xnode);
  const double sini = std::sin(xinc);
  const double cosi = std::cos(xinc);
  const double xmx = -snod * cosi;
  const double xmy = cnod * cosi;
  const double ux = xmx * sinsu + cnod * cossu;
  const double uy = xmy * sinsu + snod * cossu;
  const double uz = sini * sinsu;
  const double vx = xmx * cossu - cnod * sinsu;
  const double vy = xmy * cossu - snod * sinsu;
  const double vz = sini * cossu;

  if (mrt < 1.0) {
    return PropagateStatus::kDecayed;
  }

  const double vkmpersec = kRe * kXke / 60.0;
  out.position_km = {mrt * ux * kRe, mrt * uy * kRe, mrt * uz * kRe};
  out.velocity_km_s = {(mvt * ux + rvdot * vx) * vkmpersec,
                       (mvt * uy + rvdot * vy) * vkmpersec,
                       (mvt * uz + rvdot * vz) * vkmpersec};
  return PropagateStatus::kOk;
}

StateVector propagate_or_throw(const CommonConstants& c, double tsince_minutes) {
  StateVector out;
  switch (propagate_common(c, tsince_minutes, out)) {
    case PropagateStatus::kOk:
      return out;
    case PropagateStatus::kEccentricityOutOfRange:
      throw Sgp4Error("propagated eccentricity outside SGP4 domain");
    case PropagateStatus::kNegativeSemiLatusRectum:
      throw Sgp4Error("semi-latus rectum went negative");
    case PropagateStatus::kDecayed:
      throw Sgp4Error("satellite has decayed");
  }
  throw Sgp4Error("unreachable propagate status");
}

}  // namespace starlab::sgp4
