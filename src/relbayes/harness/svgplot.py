"""Self-contained SVG boxplots, no plotting library involved.

Quartiles use linear interpolation between order statistics (numpy's
default percentile method, the R type-7 convention).  Whiskers extend to
the most extreme data point within 1.5 IQR of the box; anything beyond is
drawn as an outlier point.  A dashed reference line marks zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _escape(text: str) -> str:
    """text with &, > and < as XML entities, & first, as
    xml.sax.saxutils.escape does; that module's import pulls in urllib and
    ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class BoxStats:
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple
    count: int


def box_stats(values) -> BoxStats:
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("cannot summarize an empty group")
    if not np.all(np.isfinite(v)):
        raise ValueError("group contains non-finite values")
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    outliers = v[(v < lo_fence) | (v > hi_fence)]
    return BoxStats(q1=float(q1), median=float(med), q3=float(q3),
                    whisker_lo=float(inside.min()), whisker_hi=float(inside.max()),
                    outliers=tuple(float(x) for x in outliers), count=int(v.size))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, target: int = 5) -> np.ndarray:
    span = hi - lo
    if span <= 0:
        return np.array([lo])
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + step / 2, step)


def emit_boxplot_svg(groups: dict, path, title: str = "", y_label: str = ""):
    """Render one box per group; groups maps label -> value sequence."""
    if not groups:
        raise ValueError("no groups to plot")
    stats = {label: box_stats(vals) for label, vals in groups.items()}

    width, height = 120 + 110 * len(stats), 420
    left, right, top, bottom = 70, 30, 40, 60
    plot_w, plot_h = width - left - right, height - top - bottom

    all_vals = [x for s in stats.values()
                for x in (s.whisker_lo, s.whisker_hi, *s.outliers)]
    lo, hi = min(all_vals + [0.0]), max(all_vals + [0.0])
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    lo, hi = lo - pad, hi + pad

    def y(v: float) -> float:
        return top + plot_h * (hi - v) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{_escape(title)}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 16 {top + plot_h / 2:.0f})">{_escape(y_label)}</text>')

    for tick in _ticks(lo, hi):
        ty = y(float(tick))
        parts.append(f'<line x1="{left - 4}" y1="{_fmt(ty)}" x2="{left}" y2="{_fmt(ty)}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{_fmt(ty + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:g}</text>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
                 f'stroke="black" stroke-width="1"/>')
    zy = y(0.0)
    parts.append(f'<line x1="{left}" y1="{_fmt(zy)}" x2="{left + plot_w}" y2="{_fmt(zy)}" '
                 f'stroke="#888888" stroke-width="1" stroke-dasharray="5,4"/>')

    slot = plot_w / len(stats)
    box_w = min(60.0, 0.5 * slot)
    for k, (label, s) in enumerate(stats.items()):
        cx = left + (k + 0.5) * slot
        x0, x1 = cx - box_w / 2, cx + box_w / 2
        parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(y(s.whisker_lo))}" '
                     f'x2="{_fmt(cx)}" y2="{_fmt(y(s.q1))}" stroke="black" stroke-width="1"/>')
        parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(y(s.q3))}" '
                     f'x2="{_fmt(cx)}" y2="{_fmt(y(s.whisker_hi))}" stroke="black" stroke-width="1"/>')
        for wy in (s.whisker_lo, s.whisker_hi):
            parts.append(f'<line x1="{_fmt(cx - box_w / 4)}" y1="{_fmt(y(wy))}" '
                         f'x2="{_fmt(cx + box_w / 4)}" y2="{_fmt(y(wy))}" '
                         f'stroke="black" stroke-width="1"/>')
        parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y(s.q3))}" width="{_fmt(box_w)}" '
                     f'height="{_fmt(y(s.q1) - y(s.q3))}" fill="#9ecae1" stroke="black" '
                     f'stroke-width="1"/>')
        parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y(s.median))}" x2="{_fmt(x1)}" '
                     f'y2="{_fmt(y(s.median))}" stroke="black" stroke-width="2"/>')
        for o in s.outliers:
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(y(o))}" r="2.5" '
                         f'fill="none" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(cx)}" y="{height - 34}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_escape(str(label))}</text>')
        parts.append(f'<text x="{_fmt(cx)}" y="{height - 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="9" fill="#666666">'
                     f'n={s.count}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
    return stats
