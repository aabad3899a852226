(* Bounded line framing for connections, worker pipes and the client.
   A reader is an incremental splitter: bytes go in as they arrive and
   complete lines come out, the same whatever the chunking.  A
   per-line cap holds at the transport, so an endless line costs a
   bounded buffer and a [Too_long]; the frame parser never sees it.
   The newline search never rescans a byte.  The same byte queue holds
   a connection's unsent output ({!flush}). *)

type line =
  | Line of string
  | Too_long  (* the oversized line has been consumed and discarded *)
  | Eof

type reader = {
  max_line : int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable stop : int;  (* end of the buffered bytes *)
  mutable scanned : int;  (* [start, scanned) holds no newline *)
  mutable skipping : bool;  (* discarding the rest of an over-long line *)
  mutable eof : bool;
}

let reader ?(max_line = 16 * 1024 * 1024) ?(size = 65536) () =
  { max_line; buf = Bytes.create size; start = 0; stop = 0; scanned = 0;
    skipping = false; eof = false }

let clear r =
  r.start <- 0;
  r.stop <- 0;
  r.scanned <- 0

(* Room for [n] more bytes after [stop]: slide the unread bytes to the
   front, growing the buffer only when they fill half of it. *)
let reserve r n =
  if r.stop + n > Bytes.length r.buf then begin
    let live = r.stop - r.start in
    let buf =
      if 2 * live <= Bytes.length r.buf && live + n <= Bytes.length r.buf
      then r.buf
      else Bytes.create (max (2 * Bytes.length r.buf) (live + n))
    in
    Bytes.blit r.buf r.start buf 0 live;
    r.buf <- buf;
    r.scanned <- r.scanned - r.start;
    r.start <- 0;
    r.stop <- live
  end

let feed r s =
  reserve r (String.length s);
  Bytes.blit_string s 0 r.buf r.stop (String.length s);
  r.stop <- r.stop + String.length s

let rec newline r i =
  if i >= r.stop then None
  else if Bytes.unsafe_get r.buf i = '\n' then Some i
  else newline r (i + 1)

(* The next complete line, or [None] when more bytes are needed.  Past
   EOF it never answers [None]: the final unterminated line if any,
   then [Eof] for good. *)
let next r =
  match newline r r.scanned with
  | Some i ->
    (* tolerate CRLF peers *)
    let stop =
      if i > r.start && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i
    in
    let len = stop - r.start in
    let line =
      if r.skipping || len > r.max_line then Too_long
      else Line (Bytes.sub_string r.buf r.start len)
    in
    r.skipping <- false;
    r.start <- i + 1;
    r.scanned <- i + 1;
    Some line
  | None ->
    r.scanned <- r.stop;
    (* past cap + 1 bytes (room for a CR) no line ending can save it *)
    if r.skipping || r.stop - r.start > r.max_line + 1 then begin
      r.skipping <- true;
      clear r
    end;
    if not r.eof then None
    else begin
      let len = r.stop - r.start in
      let last =
        if r.skipping || len = 0 || len > r.max_line then Eof
        else Line (Bytes.sub_string r.buf r.start len)
      in
      r.skipping <- false;
      clear r;
      Some last
    end

(* One read(2) straight into the reader.  EINTR and EAGAIN read
   nothing; any other error counts as EOF (the peer is gone either
   way). *)
let read r fd =
  reserve r 4096;
  match Unix.read fd r.buf r.stop (Bytes.length r.buf - r.stop) with
  | 0 -> r.eof <- true
  | n -> r.stop <- r.stop + n
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()
  | exception Unix.Unix_error (_, _, _) -> r.eof <- true

(* Blocking: the next line from [fd], reading as needed. *)
let rec read_line r fd =
  match next r with
  | Some line -> line
  | None ->
    read r fd;
    read_line r fd

let pending r = r.stop - r.start

(* Write what [fd] takes now of the queued bytes, without blocking;
   [false] once the peer is gone. *)
let flush r fd =
  match Unix.write fd r.buf r.start (r.stop - r.start) with
  | n ->
    r.start <- r.start + n;
    if r.start = r.stop then clear r;
    true
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    true
  | exception Unix.Unix_error (_, _, _) -> false

(* Write a full line or learn the peer is gone; partial writes are
   retried, EPIPE/reset surface as [false] so the caller can mark the
   connection dead without tearing anything else down. *)
let write_line fd s =
  let line = s ^ "\n" in
  let len = String.length line in
  let rec go off =
    if off >= len then true
    else
      match Unix.write_substring fd line off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0
