package repro.core

/** An open-addressing hash table from `Long` keys to `width` `Long` sums
  * each, all 0 until added to: the primitive map behind DBG construction's
  * two mini-MapReduce phases (a (k+1)-mer's count; a vertex's 8 slot
  * coverages). Every `Long` is a key — for k = 31 the poly-A (k+1)-mer
  * packs to 0 and others have bit 63 set — so occupancy is kept in an
  * array of its own, never in a sentinel key. Linear probing from a
  * Fibonacci hash; the table doubles before it is half full.
  */
private[core] final class LongTable(width: Int) {
  private var bits = LongTable.InitialBits
  private var keys = new Array[Long](1 << bits)
  private var used = new Array[Boolean](1 << bits)
  private var sums = new Array[Long](width << bits)
  private var count = 0

  /** Add `delta` to sum `j` of `key`. */
  def add(key: Long, j: Int, delta: Long): Unit = {
    if (2 * (count + 1) > keys.length) grow()
    val p = probe(key)
    if (!used(p)) { used(p) = true; keys(p) = key; count += 1 }
    sums(p * width + j) += delta
  }

  /** The occupied positions, for [[key]] and [[sum]]. */
  def positions: Iterator[Int] = { val u = used; Iterator.range(0, u.length).filter(u(_)) }
  def key(p: Int): Long = keys(p)
  def sum(p: Int, j: Int): Long = sums(p * width + j)

  /** The position of `key`, or of the free one where it would go. */
  private def probe(key: Long): Int = {
    val m = keys.length - 1
    var p = ((key * 0x9E3779B97F4A7C15L) >>> (64 - bits)).toInt
    while (used(p) && keys(p) != key) p = (p + 1) & m
    p
  }

  private def grow(): Unit = {
    val (oldKeys, oldUsed, oldSums) = (keys, used, sums)
    bits += 1
    keys = new Array[Long](1 << bits)
    used = new Array[Boolean](1 << bits)
    sums = new Array[Long](width << bits)
    var i = 0
    while (i < oldKeys.length) {
      if (oldUsed(i)) {
        val p = probe(oldKeys(i))
        used(p) = true
        keys(p) = oldKeys(i)
        System.arraycopy(oldSums, i * width, sums, p * width, width)
      }
      i += 1
    }
  }
}

private[core] object LongTable {
  /** log₂ of the initial number of positions. */
  val InitialBits = 10
}
