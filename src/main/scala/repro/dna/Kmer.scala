package repro.dna

/** k-mer packing into 64-bit integers (paper §IV-A, Fig. 7).
  *
  * A k-mer (k <= 31) is encoded 2 bits per base (A=00, C=01, G=10, T=11),
  * first base in the highest-order occupied bits, right-aligned in the
  * 64-bit word with zero padding on the left. For (k+1)-mers with k = 31
  * all 64 bits are used, so canonical comparison is **unsigned**.
  *
  * Bit 63 marks non-k-mer IDs (NULL and contig IDs, Fig. 7b/7c); bit 62 is
  * the "flipped" marker used by bidirectional list ranking (§IV-B) and is
  * never part of a k-mer encoding (k <= 31 uses at most bits 0..61).
  *
  * [[Scanner]] is the one place that cuts sequences into canonical windows.
  */
object Kmer {

  /** Maximum supported k for k-mer vertex IDs. */
  val MaxK = 31

  /** Pack a base string (length <= 32) into a Long, first base high. */
  def pack(s: String): Long = {
    require(s.length <= 32, s"sequence too long to pack: ${s.length}")
    var x = 0L
    var i = 0
    while (i < s.length) { x = (x << 2) | Dna.code(s.charAt(i)).toLong; i += 1 }
    x
  }

  /** Unpack a Long into a base string of length k. */
  def unpack(x: Long, k: Int): String = {
    val sb = new StringBuilder(k)
    var i = k - 1
    while (i >= 0) { sb.append(Dna.char(((x >>> (2 * i)) & 3L).toInt)); i -= 1 }
    sb.toString
  }

  /** Base code at position i (0 = first/leftmost base) of a packed k-mer. */
  def baseAt(x: Long, k: Int, i: Int): Int = ((x >>> (2 * (k - 1 - i))) & 3L).toInt

  /** Reverse complement of a packed k-mer (1 <= k <= 32), bit-parallel:
    * reverse the order of the 2-bit groups (swap neighbouring groups, then
    * nibbles, then bytes), complement, and right-align the k bases.
    */
  def rc(x: Long, k: Int): Long = {
    val g = ((x >>> 2) & 0x3333333333333333L) | ((x & 0x3333333333333333L) << 2)
    val n = ((g >>> 4) & 0x0f0f0f0f0f0f0f0fL) | ((g & 0x0f0f0f0f0f0f0f0fL) << 4)
    ~java.lang.Long.reverseBytes(n) >>> (64 - 2 * k)
  }

  /** Canonical form: unsigned-min of the k-mer and its reverse complement. */
  def canonical(x: Long, k: Int): Long = {
    val r = rc(x, k)
    if (java.lang.Long.compareUnsigned(x, r) <= 0) x else r
  }

  /** Prefix k-mer of a packed (k+1)-mer: drop the last base. */
  def prefix(e: Long): Long = e >>> 2

  /** Suffix k-mer of a packed (k+1)-mer: drop the first base (keep low 2k bits). */
  def suffix(e: Long, k: Int): Long = e & mask(k)

  /** Low 2k-bit mask. */
  def mask(k: Int): Long = if (k >= 32) -1L else (1L << (2 * k)) - 1

  /** Extend a packed k-mer by one base on the right into a (k+1)-mer. */
  def extend(x: Long, b: Int): Long = (x << 2) | b.toLong

  /** Rolling scanner over the w-base windows (1 <= w <= 32) of `s` that
    * hold only A, C, G and T: a window never spans any other character.
    * The window and its reverse complement are kept packed and updated in
    * O(1) per base. Windows come left to right:
    *
    * {{{
    * val sc = new Kmer.Scanner(s, w)
    * while (sc.next()) use(sc.pos, sc.canonical, sc.isForward)
    * }}}
    */
  final class Scanner(s: String, w: Int) {
    require(w >= 1 && w <= 32, s"window width must be in [1, 32], got $w")
    private val m   = mask(w)
    private val top = 2 * (w - 1)
    private var i   = 0 // next character to read
    private var run = 0 // ACGT bases read since the last other character
    private var fwd = 0L
    private var rev = 0L

    /** Advance to the next window; false once `s` is exhausted. */
    def next(): Boolean = {
      while (i < s.length) {
        val b = s.charAt(i) match {
          case 'A' => 0L
          case 'C' => 1L
          case 'G' => 2L
          case 'T' => 3L
          case _   => -1L
        }
        i += 1
        if (b < 0) run = 0
        else {
          fwd = ((fwd << 2) | b) & m
          rev = (rev >>> 2) | ((b ^ 3L) << top)
          run += 1
          if (run >= w) return true
        }
      }
      false
    }

    /** Start of the current window in `s`. */
    def pos: Int = i - w

    /** True iff the window as read is its own canonical form. Two windows
      * with the same canonical form read the same way iff these agree.
      */
    def isForward: Boolean = java.lang.Long.compareUnsigned(fwd, rev) <= 0

    /** Canonical form of the current window. */
    def canonical: Long = if (isForward) fwd else rev
  }

  /** Canonical forms of the ACGT-only w-base windows of `s`, left to right. */
  def canonicalWindows(s: String, w: Int): Seq[Long] = {
    val out = new Array[Long](math.max(0, s.length - w + 1))
    val sc  = new Scanner(s, w)
    var n = 0
    while (sc.next()) { out(n) = sc.canonical; n += 1 }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(
      if (n == out.length) out else java.util.Arrays.copyOf(out, n))
  }
}
