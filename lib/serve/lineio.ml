(* Bounded line framing over a file descriptor, shared by the server
   and the client.  The reader enforces a per-line byte cap at the
   transport, so an attacker streaming an endless line costs a bounded
   buffer and gets a diagnostic — the frame parser never even sees the
   flood. *)

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes read but not yet consumed *)
  chunk : Bytes.t;
  max_line : int;
}

type line =
  | Line of string
  | Too_long  (* the oversized line has been consumed and discarded *)
  | Eof

let reader ?(max_line = 16 * 1024 * 1024) fd =
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536; max_line }

let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear r.buf;
    Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
    (* tolerate CRLF clients *)
    let line = if i > 0 && s.[i - 1] = '\r' then String.sub s 0 (i - 1)
      else String.sub s 0 i
    in
    Some line

(* One transport read.  [`Bytes 0] is EOF. *)
let fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | n -> `Bytes n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again
  | exception Unix.Unix_error (_, _, _) -> `Bytes 0

let rec read_line r =
  match take_line r with
  | Some line ->
    if String.length line > r.max_line then Too_long else Line line
  | None ->
    if Buffer.length r.buf > r.max_line then begin
      (* drop the flood, then skip until the newline that ends it *)
      Buffer.clear r.buf;
      skip_to_newline r
    end
    else begin
      match fill r with
      | `Again -> read_line r
      | `Bytes 0 ->
        (* EOF with bytes still buffered: the peer's final line had no
           trailing newline.  Deliver it — a drained daemon's last
           frame, or a hand-piped request, must not vanish — and
           report Eof on the next call, when the buffer is empty *)
        if Buffer.length r.buf = 0 then Eof
        else begin
          let s = Buffer.contents r.buf in
          Buffer.clear r.buf;
          Line s
        end
      | `Bytes n ->
        Buffer.add_subbytes r.buf r.chunk 0 n;
        read_line r
    end

and skip_to_newline r =
  match take_line r with
  | Some _ -> Too_long
  | None ->
    Buffer.clear r.buf;
    (match fill r with
     | `Again -> skip_to_newline r
     | `Bytes 0 -> Eof
     | `Bytes n ->
       Buffer.add_subbytes r.buf r.chunk 0 n;
       skip_to_newline r)

(* Write a full line or learn the peer is gone; partial writes are
   retried, EPIPE/reset surface as [false] so the caller can mark the
   connection dead without tearing anything else down. *)
let write_line fd s =
  let line = s ^ "\n" in
  let b = Bytes.of_string line in
  let len = Bytes.length b in
  let rec go off =
    if off >= len then true
    else
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0
