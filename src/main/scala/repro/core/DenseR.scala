package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession

/** Primitive open-addressing map from an R key (`rid`) to its dense index
  * 0..size−1 (the key's position in the array it was built from). Lookups
  * take and return primitives, so the per-S-row FK probe never boxes.
  */
final class KeyIndex private (table: Array[Long], slots: Array[Int], val size: Int)
    extends Serializable {
  private val mask = slots.length - 1

  /** Dense index of `key`, or −1 when R has no tuple with that key. */
  def indexOf(key: Long): Int = {
    var p = KeyIndex.hash(key) & mask
    var found = -2
    while (found == -2) {
      val s = slots(p)
      if (s < 0) found = -1
      else if (table(p) == key) found = s
      else p = (p + 1) & mask
    }
    found
  }
}

object KeyIndex {
  // murmur3's 64-bit finalizer: sequential and strided keys spread evenly.
  private def hash(key: Long): Int = {
    var h = key
    h ^= h >>> 33; h *= 0xff51afd7ed558ccdL
    h ^= h >>> 33; h *= 0xc4ceb9fe1a85ec53L
    h ^= h >>> 33
    h.toInt
  }

  /** Index `keys(i) → i`. A key that appears twice is rejected: R's key is
    * its primary key, and a second tuple would silently win.
    */
  def apply(keys: Array[Long]): KeyIndex = {
    var cap = 2
    while (cap < 2 * keys.length) cap <<= 1
    val table = new Array[Long](cap)
    val slots = Array.fill(cap)(-1)
    val mask = cap - 1
    var i = 0
    while (i < keys.length) {
      val key = keys(i)
      var p = hash(key) & mask
      while (slots(p) >= 0) {
        if (table(p) == key)
          throw new IllegalArgumentException(s"duplicate R key rid=$key")
        p = (p + 1) & mask
      }
      table(p) = key; slots(p) = i
      i += 1
    }
    new KeyIndex(table, slots, keys.length)
  }
}

/** R collected on the driver for the factorized algorithms: the dense index
  * of its keys and its features in one flat row-major array (tuple `r` at
  * `xr(r·dR until (r+1)·dR)`). Built and broadcast once per fit.
  */
final class DenseR(val index: KeyIndex, val xr: Array[Double], val dR: Int) extends Serializable {
  def n: Int = index.size
}

object DenseR {
  def apply(rRows: Array[(Long, Array[Double])], dR: Int): DenseR = {
    val xr = new Array[Double](rRows.length * dR)
    var r = 0
    while (r < rRows.length) {
      val (rid, x) = rRows(r)
      require(x.length == dR, s"R tuple rid=$rid has ${x.length} features, expected $dR")
      System.arraycopy(x, 0, xr, r * dR, dR)
      r += 1
    }
    new DenseR(KeyIndex(rRows.map(_._1)), xr, dR)
  }

  /** Build R's dense form once, broadcast it, run `body` with it (every
    * iteration of a fit, or a single step) and release the broadcast.
    */
  def withBroadcast[A](spark: SparkSession, rRows: Array[(Long, Array[Double])], dR: Int)
                      (body: Broadcast[DenseR] => A): A = {
    val bc = spark.sparkContext.broadcast(DenseR(rRows, dR))
    try body(bc) finally bc.destroy()
  }
}

/** The R tuples (dense indices) one partition's S rows referenced, in first
  * reference order; the R-side finish visits only these.
  */
final class Touched(nR: Int) {
  private val seen = new Array[Boolean](nR)
  private val list = new Array[Int](nR)
  private var count = 0

  @inline def add(r: Int): Unit =
    if (!seen(r)) { seen(r) = true; list(count) = r; count += 1 }

  def size: Int = count
  @inline def apply(t: Int): Int = list(t)
}

/** One S row as F-GMM reads it. A case class, not a tuple: the encoder
  * passes `fk` to the constructor as a primitive instead of boxing it.
  */
final case class FkRow(fk: Long, xs: Array[Double])

/** One S row as F-NN reads it (see [[FkRow]]). */
final case class FkTargetRow(fk: Long, xs: Array[Double], y: Double)
