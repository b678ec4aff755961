package repro.dna

/** Levenshtein edit distance with a cutoff band.
  *
  * Bubble filtering (paper §IV-B ④) only needs to know whether the distance
  * between two contig sequences is below a small user threshold, so we run a
  * banded DP of width 2*cap+1 in O(max(n,m) * cap) time and report
  * min(distance, cap + 1).
  */
object EditDistance {

  /** Full O(n*m) Levenshtein distance (reference implementation for tests). */
  def full(a: String, b: String): Int = {
    val n = a.length; val m = b.length
    var prev = Array.tabulate(m + 1)(identity)
    var cur  = new Array[Int](m + 1)
    var i = 1
    while (i <= n) {
      cur(0) = i
      var j = 1
      while (j <= m) {
        val sub = prev(j - 1) + (if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1)
        cur(j) = math.min(sub, math.min(prev(j) + 1, cur(j - 1) + 1))
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(m)
  }

  /** Banded distance capped at cap: returns the exact distance if it is
    * <= cap, otherwise any value > cap (callers only compare to cap).
    */
  def capped(a: String, b: String, cap: Int): Int = {
    val n = a.length; val m = b.length
    if (math.abs(n - m) > cap) return cap + 1
    val inf  = cap + 1
    // dp over diagonal band: column j in [i-cap, i+cap]
    var prev = new Array[Int](2 * cap + 1)
    var cur  = new Array[Int](2 * cap + 1)
    // row 0: dp(0)(j) = j for j in [0, cap]
    var d = 0
    while (d < 2 * cap + 1) { val j = 0 - cap + d; prev(d) = if (j >= 0 && j <= m) j else inf; d += 1 }
    var i = 1
    while (i <= n) {
      d = 0
      while (d < 2 * cap + 1) {
        val j = i - cap + d
        if (j < 0 || j > m) cur(d) = inf
        else if (j == 0) cur(d) = i
        else {
          val sub  = (if (d >= 0) prev(d) else inf) + // prev row, j-1 => same band index d
            (if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1)
          val del  = if (d + 1 < 2 * cap + 1) prev(d + 1) + 1 else inf // prev row, j
          val ins  = if (d - 1 >= 0) cur(d - 1) + 1 else inf          // this row, j-1
          cur(d) = math.min(inf, math.min(sub, math.min(del, ins)))
        }
        d += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    val dm = m - n + cap
    if (dm >= 0 && dm < 2 * cap + 1) math.min(prev(dm), inf) else inf
  }
}
