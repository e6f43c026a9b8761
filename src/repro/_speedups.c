/* C hot paths, used whenever this extension is built (repro.core.kernels).
 *
 * Two independent pieces, each with a pure-Python twin that remains the
 * reference semantics:
 *
 * RoundOps
 *     The incremental Balance-matrices bookkeeping
 *     (BalanceMatrices.add_block / remove_block / _update_row /
 *     channels_with_two / the refresh_aux sync check) operating directly
 *     on the *same* Python containers the pure path maintains: the X/A
 *     int64 ndarrays (via the buffer protocol), the _xrows/_alist plain
 *     list mirrors, the 2-cell index sets and the per-bucket factor
 *     list.  Because every structure is shared, the Python-side readers
 *     (bucket_with_two, MatchingInstance.from_matrices, the invariant
 *     checks, ablation tampering) see bit-identical state at every
 *     step, and dropping the RoundOps object at any point degrades to
 *     the pure path mid-run without a resync.
 *
 * dumps
 *     A canonical-JSON encoder for plain scalar trees, byte-identical
 *     to json.dumps(obj, separators=(",", ":"), sort_keys=...) with
 *     ensure_ascii (the default).  Raises TypeError on any value
 *     outside {dict, list, tuple, str, int, float, bool, None} (exact
 *     types only) so callers can fall back to the stdlib encoder.
 *
 * Everything here holds the GIL; no threads, no releases.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* ====================================================================== */
/* RoundOps                                                               */
/* ====================================================================== */

typedef struct {
    PyObject_HEAD
    PyObject *xobj;      /* the X ndarray (buffer owner)                  */
    PyObject *aobj;      /* the A ndarray                                 */
    Py_buffer xbuf;      /* int64, 2D, C-contiguous, writable             */
    Py_buffer abuf;
    int bufs_held;
    PyObject *xrows;     /* list[list[int]]  — shared with BalanceMatrices */
    PyObject *alist;     /* list[list[int]]                                */
    PyObject *twos;      /* set[(b, h)]                                    */
    PyObject *over;      /* set[(b, h)]                                    */
    PyObject *factors;   /* list[float]                                    */
    Py_ssize_t S, H, rank;
} RoundOpsObject;

static int
_check_i64_2d(Py_buffer *buf, const char *name)
{
    if (buf->ndim != 2) {
        PyErr_Format(PyExc_ValueError, "%s must be 2-D", name);
        return -1;
    }
    if (buf->itemsize != 8) {
        PyErr_Format(PyExc_ValueError, "%s must be int64", name);
        return -1;
    }
    if (buf->format != NULL && strcmp(buf->format, "l") != 0
        && strcmp(buf->format, "q") != 0) {
        PyErr_Format(PyExc_ValueError, "%s must be int64 (format %s)",
                     name, buf->format);
        return -1;
    }
    if (buf->strides[1] != 8 || buf->strides[0] != 8 * buf->shape[1]) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
        return -1;
    }
    return 0;
}

static int
RoundOps_init(RoundOpsObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *x, *a, *xrows, *alist, *twos, *over, *factors;
    Py_ssize_t rank;
    if (!PyArg_ParseTuple(args, "OOO!O!O!O!O!n",
                          &x, &a,
                          &PyList_Type, &xrows, &PyList_Type, &alist,
                          &PySet_Type, &twos, &PySet_Type, &over,
                          &PyList_Type, &factors, &rank))
        return -1;
    if (PyObject_GetBuffer(x, &self->xbuf,
                           PyBUF_STRIDES | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        return -1;
    if (PyObject_GetBuffer(a, &self->abuf,
                           PyBUF_STRIDES | PyBUF_FORMAT | PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(&self->xbuf);
        return -1;
    }
    self->bufs_held = 1;
    if (_check_i64_2d(&self->xbuf, "X") < 0 || _check_i64_2d(&self->abuf, "A") < 0)
        return -1;
    self->S = self->xbuf.shape[0];
    self->H = self->xbuf.shape[1];
    if (self->abuf.shape[0] != self->S || self->abuf.shape[1] != self->H) {
        PyErr_SetString(PyExc_ValueError, "A shape mismatch with X");
        return -1;
    }
    if (PyList_GET_SIZE(xrows) != self->S || PyList_GET_SIZE(alist) != self->S
        || PyList_GET_SIZE(factors) != self->S) {
        PyErr_SetString(PyExc_ValueError, "mirror list length mismatch with X");
        return -1;
    }
    if (rank < 1 || rank > self->H) {
        PyErr_SetString(PyExc_ValueError, "rank out of range");
        return -1;
    }
    if (self->H > 4096) {
        PyErr_SetString(PyExc_ValueError, "H' too large for compiled ops");
        return -1;
    }
    Py_INCREF(x);      self->xobj = x;
    Py_INCREF(a);      self->aobj = a;
    Py_INCREF(xrows);  self->xrows = xrows;
    Py_INCREF(alist);  self->alist = alist;
    Py_INCREF(twos);   self->twos = twos;
    Py_INCREF(over);   self->over = over;
    Py_INCREF(factors); self->factors = factors;
    self->rank = rank;
    return 0;
}

static void
RoundOps_dealloc(RoundOpsObject *self)
{
    if (self->bufs_held) {
        PyBuffer_Release(&self->xbuf);
        PyBuffer_Release(&self->abuf);
        self->bufs_held = 0;
    }
    Py_XDECREF(self->xobj);
    Py_XDECREF(self->aobj);
    Py_XDECREF(self->xrows);
    Py_XDECREF(self->alist);
    Py_XDECREF(self->twos);
    Py_XDECREF(self->over);
    Py_XDECREF(self->factors);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static inline int64_t *
_xrow(RoundOpsObject *self, Py_ssize_t b)
{
    return (int64_t *)((char *)self->xbuf.buf + b * self->xbuf.strides[0]);
}

static inline int64_t *
_arow(RoundOpsObject *self, Py_ssize_t b)
{
    return (int64_t *)((char *)self->abuf.buf + b * self->abuf.strides[0]);
}

/* Move `cell` between the 2-cell index sets exactly as _update_row does. */
static int
_shift_cell(RoundOpsObject *self, Py_ssize_t b, Py_ssize_t h,
            long old, long a)
{
    PyObject *cell, *bo, *ho;
    int rc = 0;
    if (old < 2 && a < 2)
        return 0;
    bo = PyLong_FromSsize_t(b);
    ho = PyLong_FromSsize_t(h);
    if (bo == NULL || ho == NULL) {
        Py_XDECREF(bo); Py_XDECREF(ho);
        return -1;
    }
    cell = PyTuple_Pack(2, bo, ho);
    Py_DECREF(bo); Py_DECREF(ho);
    if (cell == NULL)
        return -1;
    if (old == 2)
        rc = PySet_Discard(self->twos, cell);
    else if (old > 2)
        rc = PySet_Discard(self->over, cell);
    if (rc >= 0) {
        if (a == 2)
            rc = PySet_Add(self->twos, cell);
        else if (a > 2)
            rc = PySet_Add(self->over, cell);
    }
    Py_DECREF(cell);
    return rc < 0 ? -1 : 0;
}

/* BalanceMatrices._update_row, verbatim semantics (integer arithmetic,
 * same set transitions, same IEEE factor division). */
static int
_update_row(RoundOpsObject *self, Py_ssize_t b)
{
    int64_t *xr = _xrow(self, b);
    int64_t *ar = _arow(self, b);
    PyObject *arow_list = PyList_GET_ITEM(self->alist, b);
    Py_ssize_t H = self->H;
    int64_t m, mx = 0, total = 0;
    Py_ssize_t h;

    if (!PyList_CheckExact(arow_list) || PyList_GET_SIZE(arow_list) != H) {
        PyErr_SetString(PyExc_ValueError, "alist row shape mismatch");
        return -1;
    }
    if (H == 2) {
        int64_t x0 = xr[0], x1 = xr[1];
        m = x0 <= x1 ? x0 : x1;
        mx = x0 <= x1 ? x1 : x0;
        total = x0 + x1;
    }
    else {
        /* paper median: rank-th smallest (rank is 1-indexed) */
        int64_t sorted_row[4096];
        for (h = 0; h < H; h++)
            sorted_row[h] = xr[h];
        /* insertion sort: H' is small (≤ a few dozen in practice) */
        for (h = 1; h < H; h++) {
            int64_t v = sorted_row[h];
            Py_ssize_t j = h;
            while (j > 0 && sorted_row[j - 1] > v) {
                sorted_row[j] = sorted_row[j - 1];
                j--;
            }
            sorted_row[j] = v;
        }
        m = sorted_row[self->rank - 1];
    }
    for (h = 0; h < H; h++) {
        int64_t x = xr[h];
        int64_t a = x > m ? x - m : 0;
        PyObject *old_obj = PyList_GET_ITEM(arow_list, h);
        long old = PyLong_AsLong(old_obj);
        if (old == -1 && PyErr_Occurred())
            return -1;
        if (old != (long)a) {
            PyObject *av = PyLong_FromLongLong(a);
            if (av == NULL)
                return -1;
            PyList_SetItem(arow_list, h, av);  /* steals av */
            ar[h] = a;
            if (_shift_cell(self, b, h, old, (long)a) < 0)
                return -1;
        }
        if (H != 2) {
            total += x;
            if (x > mx)
                mx = x;
        }
    }
    {
        /* mx / ceil(total / H'), 1.0 for an empty bucket — one IEEE
         * double division, exactly the Python expression's result. */
        double f = total
            ? (double)mx / (double)((total + H - 1) / H)
            : 1.0;
        PyObject *fo = PyFloat_FromDouble(f);
        if (fo == NULL)
            return -1;
        PyList_SetItem(self->factors, b, fo);  /* steals */
    }
    return 0;
}

static int
_bump(RoundOpsObject *self, Py_ssize_t b, Py_ssize_t h, int delta)
{
    PyObject *row_list, *iv;
    long cur;
    if (b < 0 || b >= self->S || h < 0 || h >= self->H) {
        PyErr_SetString(PyExc_IndexError, "bucket/channel out of range");
        return -1;
    }
    _xrow(self, b)[h] += delta;
    row_list = PyList_GET_ITEM(self->xrows, b);
    if (!PyList_CheckExact(row_list) || PyList_GET_SIZE(row_list) != self->H) {
        PyErr_SetString(PyExc_ValueError, "xrows row shape mismatch");
        return -1;
    }
    cur = PyLong_AsLong(PyList_GET_ITEM(row_list, h));
    if (cur == -1 && PyErr_Occurred())
        return -1;
    iv = PyLong_FromLong(cur + delta);
    if (iv == NULL)
        return -1;
    PyList_SetItem(row_list, h, iv);  /* steals */
    return _update_row(self, b);
}

static PyObject *
RoundOps_add_block(RoundOpsObject *self, PyObject *args)
{
    Py_ssize_t b, h;
    if (!PyArg_ParseTuple(args, "nn", &b, &h))
        return NULL;
    if (_bump(self, b, h, 1) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Returns False on histogram underflow (the caller raises
 * InvariantViolation with the pure path's message). */
static PyObject *
RoundOps_remove_block(RoundOpsObject *self, PyObject *args)
{
    Py_ssize_t b, h;
    if (!PyArg_ParseTuple(args, "nn", &b, &h))
        return NULL;
    if (b < 0 || b >= self->S || h < 0 || h >= self->H) {
        PyErr_SetString(PyExc_IndexError, "bucket/channel out of range");
        return NULL;
    }
    if (_xrow(self, b)[h] <= 0)
        Py_RETURN_FALSE;
    if (_bump(self, b, h, -1) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

/* X still matches the _xrows mirror?  (refresh_aux's tamper check:
 * X.tolist() == _xrows, without materializing the list.) */
static PyObject *
RoundOps_synced(RoundOpsObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t b, h;
    for (b = 0; b < self->S; b++) {
        PyObject *row_list = PyList_GET_ITEM(self->xrows, b);
        int64_t *xr = _xrow(self, b);
        if (!PyList_CheckExact(row_list)
            || PyList_GET_SIZE(row_list) != self->H)
            Py_RETURN_FALSE;
        for (h = 0; h < self->H; h++) {
            long v = PyLong_AsLong(PyList_GET_ITEM(row_list, h));
            if (v == -1 && PyErr_Occurred()) {
                PyErr_Clear();
                Py_RETURN_FALSE;
            }
            if ((int64_t)v != xr[h])
                Py_RETURN_FALSE;
        }
    }
    Py_RETURN_TRUE;
}

/* sorted 2-cells' channels; None on a duplicate channel (caller raises). */
static PyObject *
RoundOps_channels_with_two(RoundOpsObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t n = PySet_GET_SIZE(self->twos);
    PyObject *cells, *cols;
    Py_ssize_t i, j;
    if (n == 0)
        return PyList_New(0);
    cells = PySequence_List(self->twos);
    if (cells == NULL)
        return NULL;
    if (PyList_Sort(cells) < 0) {
        Py_DECREF(cells);
        return NULL;
    }
    cols = PyList_New(n);
    if (cols == NULL) {
        Py_DECREF(cells);
        return NULL;
    }
    for (i = 0; i < n; i++) {
        PyObject *cell = PyList_GET_ITEM(cells, i);
        PyObject *h;
        if (!PyTuple_CheckExact(cell) || PyTuple_GET_SIZE(cell) != 2) {
            Py_DECREF(cells); Py_DECREF(cols);
            PyErr_SetString(PyExc_ValueError, "malformed 2-cell");
            return NULL;
        }
        h = PyTuple_GET_ITEM(cell, 1);
        Py_INCREF(h);
        PyList_SET_ITEM(cols, i, h);
    }
    Py_DECREF(cells);
    /* duplicate-channel check (n is tiny: ≤ H') */
    for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++) {
            int eq = PyObject_RichCompareBool(PyList_GET_ITEM(cols, i),
                                              PyList_GET_ITEM(cols, j), Py_EQ);
            if (eq < 0) {
                Py_DECREF(cols);
                return NULL;
            }
            if (eq) {
                Py_DECREF(cols);
                Py_RETURN_NONE;
            }
        }
    return cols;
}

static PyMethodDef RoundOps_methods[] = {
    {"add_block", (PyCFunction)RoundOps_add_block, METH_VARARGS, NULL},
    {"remove_block", (PyCFunction)RoundOps_remove_block, METH_VARARGS, NULL},
    {"synced", (PyCFunction)RoundOps_synced, METH_NOARGS, NULL},
    {"channels_with_two", (PyCFunction)RoundOps_channels_with_two,
     METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject RoundOpsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._speedups.RoundOps",
    .tp_basicsize = sizeof(RoundOpsObject),
    .tp_dealloc = (destructor)RoundOps_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled incremental Balance-matrices bookkeeping",
    .tp_methods = RoundOps_methods,
    .tp_init = (initproc)RoundOps_init,
    .tp_new = PyType_GenericNew,
};

/* ====================================================================== */
/* dumps — canonical compact JSON for plain scalar trees                  */
/* ====================================================================== */

typedef struct {
    char *buf;
    Py_ssize_t len;
    Py_ssize_t cap;
} Writer;

static int
w_reserve(Writer *w, Py_ssize_t extra)
{
    if (w->len + extra <= w->cap)
        return 0;
    {
        Py_ssize_t ncap = w->cap * 2;
        char *nb;
        if (ncap < w->len + extra)
            ncap = w->len + extra + 256;
        nb = PyMem_Realloc(w->buf, ncap);
        if (nb == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->buf = nb;
        w->cap = ncap;
    }
    return 0;
}

static inline int
w_char(Writer *w, char c)
{
    if (w->len + 1 > w->cap && w_reserve(w, 1) < 0)
        return -1;
    w->buf[w->len++] = c;
    return 0;
}

static int
w_bytes(Writer *w, const char *s, Py_ssize_t n)
{
    if (w_reserve(w, n) < 0)
        return -1;
    memcpy(w->buf + w->len, s, n);
    w->len += n;
    return 0;
}

static const char HEX[] = "0123456789abcdef";

/* json.dumps string escaping with ensure_ascii: ASCII 0x20..0x7e pass
 * through (except " and \), control chars use the two-char shortcuts
 * where they exist, everything else becomes \uXXXX (surrogate pairs for
 * astral codepoints) — matching CPython's c_encode_basestring_ascii. */
static int
w_string(Writer *w, PyObject *s)
{
    Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    int kind = PyUnicode_KIND(s);
    const void *data = PyUnicode_DATA(s);
    Py_ssize_t i;
    if (w_char(w, '"') < 0)
        return -1;
    for (i = 0; i < n; i++) {
        Py_UCS4 c = PyUnicode_READ(kind, data, i);
        if (c >= 0x20 && c <= 0x7e && c != '"' && c != '\\') {
            if (w_char(w, (char)c) < 0)
                return -1;
            continue;
        }
        switch (c) {
        case '"':  if (w_bytes(w, "\\\"", 2) < 0) return -1; break;
        case '\\': if (w_bytes(w, "\\\\", 2) < 0) return -1; break;
        case '\b': if (w_bytes(w, "\\b", 2) < 0) return -1; break;
        case '\f': if (w_bytes(w, "\\f", 2) < 0) return -1; break;
        case '\n': if (w_bytes(w, "\\n", 2) < 0) return -1; break;
        case '\r': if (w_bytes(w, "\\r", 2) < 0) return -1; break;
        case '\t': if (w_bytes(w, "\\t", 2) < 0) return -1; break;
        default:
            if (c >= 0x10000) {
                Py_UCS4 v = c - 0x10000;
                unsigned int hi = 0xd800 + (v >> 10);
                unsigned int lo = 0xdc00 + (v & 0x3ff);
                char esc[12] = {
                    '\\', 'u', HEX[(hi >> 12) & 15], HEX[(hi >> 8) & 15],
                    HEX[(hi >> 4) & 15], HEX[hi & 15],
                    '\\', 'u', HEX[(lo >> 12) & 15], HEX[(lo >> 8) & 15],
                    HEX[(lo >> 4) & 15], HEX[lo & 15],
                };
                if (w_bytes(w, esc, 12) < 0)
                    return -1;
            }
            else {
                char esc[6] = {
                    '\\', 'u', HEX[(c >> 12) & 15], HEX[(c >> 8) & 15],
                    HEX[(c >> 4) & 15], HEX[c & 15],
                };
                if (w_bytes(w, esc, 6) < 0)
                    return -1;
            }
        }
    }
    return w_char(w, '"');
}

static int w_value(Writer *w, PyObject *obj, int sort_keys);

static int
w_float(Writer *w, PyObject *obj)
{
    double v = PyFloat_AS_DOUBLE(obj);
    if (Py_IS_NAN(v))
        return w_bytes(w, "NaN", 3);
    if (Py_IS_INFINITY(v))
        return w_bytes(w, v > 0 ? "Infinity" : "-Infinity", v > 0 ? 8 : 9);
    {
        /* float.__repr__'s algorithm — what json.dumps emits */
        char *s = PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        int rc;
        if (s == NULL)
            return -1;
        rc = w_bytes(w, s, (Py_ssize_t)strlen(s));
        PyMem_Free(s);
        return rc;
    }
}

static int
w_int(Writer *w, PyObject *obj)
{
    /* Fast path for machine-word ints; repr() for arbitrary precision. */
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (!overflow && !(v == -1 && PyErr_Occurred())) {
        char tmp[24];
        int n = snprintf(tmp, sizeof tmp, "%lld", v);
        return w_bytes(w, tmp, n);
    }
    PyErr_Clear();
    {
        PyObject *r = PyObject_Repr(obj);
        Py_ssize_t n;
        const char *s;
        int rc;
        if (r == NULL)
            return -1;
        s = PyUnicode_AsUTF8AndSize(r, &n);
        if (s == NULL) {
            Py_DECREF(r);
            return -1;
        }
        rc = w_bytes(w, s, n);
        Py_DECREF(r);
        return rc;
    }
}

static int
w_dict(Writer *w, PyObject *obj, int sort_keys)
{
    PyObject *keys = NULL;
    Py_ssize_t i, n;
    int first = 1;
    if (w_char(w, '{') < 0)
        return -1;
    if (sort_keys) {
        keys = PyDict_Keys(obj);
        if (keys == NULL)
            return -1;
        n = PyList_GET_SIZE(keys);
        for (i = 0; i < n; i++)
            if (!PyUnicode_CheckExact(PyList_GET_ITEM(keys, i))) {
                Py_DECREF(keys);
                PyErr_SetString(PyExc_TypeError, "non-str dict key");
                return -1;
            }
        if (PyList_Sort(keys) < 0) {
            Py_DECREF(keys);
            return -1;
        }
        for (i = 0; i < n; i++) {
            PyObject *k = PyList_GET_ITEM(keys, i);
            PyObject *v = PyDict_GetItemWithError(obj, k);
            if (v == NULL) {
                Py_DECREF(keys);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_RuntimeError, "dict changed");
                return -1;
            }
            if (!first && w_char(w, ',') < 0)
                goto dfail;
            first = 0;
            if (w_string(w, k) < 0 || w_char(w, ':') < 0
                || w_value(w, v, sort_keys) < 0)
                goto dfail;
        }
        Py_DECREF(keys);
    }
    else {
        PyObject *k, *v;
        Py_ssize_t pos = 0;
        while (PyDict_Next(obj, &pos, &k, &v)) {
            if (!PyUnicode_CheckExact(k)) {
                PyErr_SetString(PyExc_TypeError, "non-str dict key");
                return -1;
            }
            if (!first && w_char(w, ',') < 0)
                return -1;
            first = 0;
            if (w_string(w, k) < 0 || w_char(w, ':') < 0
                || w_value(w, v, sort_keys) < 0)
                return -1;
        }
    }
    return w_char(w, '}');
dfail:
    Py_DECREF(keys);
    return -1;
}

static int
w_value(Writer *w, PyObject *obj, int sort_keys)
{
    int rc;
    if (obj == Py_None)
        return w_bytes(w, "null", 4);
    if (obj == Py_True)
        return w_bytes(w, "true", 4);
    if (obj == Py_False)
        return w_bytes(w, "false", 5);
    if (PyUnicode_CheckExact(obj))
        return w_string(w, obj);
    if (PyLong_CheckExact(obj))
        return w_int(w, obj);
    if (PyFloat_CheckExact(obj))
        return w_float(w, obj);
    if (PyList_CheckExact(obj) || PyTuple_CheckExact(obj)) {
        Py_ssize_t i, n = PySequence_Fast_GET_SIZE(obj);
        PyObject **items = PySequence_Fast_ITEMS(obj);
        if (Py_EnterRecursiveCall(" while encoding JSON"))
            return -1;
        rc = w_char(w, '[');
        for (i = 0; rc == 0 && i < n; i++) {
            if (i && (rc = w_char(w, ',')) < 0)
                break;
            rc = w_value(w, items[i], sort_keys);
        }
        if (rc == 0)
            rc = w_char(w, ']');
        Py_LeaveRecursiveCall();
        return rc;
    }
    if (PyDict_CheckExact(obj)) {
        if (Py_EnterRecursiveCall(" while encoding JSON"))
            return -1;
        rc = w_dict(w, obj, sort_keys);
        Py_LeaveRecursiveCall();
        return rc;
    }
    PyErr_Format(PyExc_TypeError,
                 "dumps: unsupported type %.80s", Py_TYPE(obj)->tp_name);
    return -1;
}

static PyObject *
speedups_dumps(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *obj;
    int sort_keys = 0;
    Writer w;
    PyObject *out;
    if (!PyArg_ParseTuple(args, "O|p", &obj, &sort_keys))
        return NULL;
    w.cap = 1024;
    w.len = 0;
    w.buf = PyMem_Malloc(w.cap);
    if (w.buf == NULL)
        return PyErr_NoMemory();
    if (w_value(&w, obj, sort_keys) < 0) {
        PyMem_Free(w.buf);
        return NULL;
    }
    out = PyUnicode_DecodeASCII(w.buf, w.len, NULL);
    PyMem_Free(w.buf);
    return out;
}

/* ====================================================================== */

static PyMethodDef speedups_methods[] = {
    {"dumps", (PyCFunction)speedups_dumps, METH_VARARGS,
     "dumps(obj, sort_keys=False): canonical compact JSON for scalar trees."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._speedups",
    .m_doc = "C hot paths used whenever this extension is built.",
    .m_size = -1,
    .m_methods = speedups_methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *m;
    if (PyType_Ready(&RoundOpsType) < 0)
        return NULL;
    m = PyModule_Create(&speedups_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&RoundOpsType);
    if (PyModule_AddObject(m, "RoundOps", (PyObject *)&RoundOpsType) < 0) {
        Py_DECREF(&RoundOpsType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
